package main

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/subsum/subsum/internal/broker"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
)

// clock reads monotonic nanoseconds since the run started.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// span is one traced interval at a layer boundary the harness can see.
// Spans of one event share Key (its sequence number).
type span struct {
	ID, Parent uint64
	Name       string
	Key        int64
	Start, End int64
}

// Span id spaces: an event's root and publish spans derive their ids
// from its sequence number, so delivery callbacks on broker goroutines
// can name their parent without coordination.
const (
	idRoot    = 1 << 56
	idPublish = 2 << 56
	idOther   = 3 << 56
)

func rootID(seq int) uint64 { return idRoot | uint64(seq) }

// shardLog is one delivery sink. Delivery callbacks for a broker's
// subscriptions run on that broker's handler goroutine (and wire pushes
// on the client's read goroutine), so each sink is effectively single
// writer; the mutex orders it against the final read.
type shardLog struct {
	mu    sync.Mutex
	ds    []delivery
	spans []span
	texts []string // pushed event text per delivery (wire sinks only)
}

// recorder collects delivery callbacks.
type recorder struct {
	clk     clock
	seqAttr schema.AttrID
	// last[seq] is the time of the event's latest delivery callback.
	last   []atomic.Int64
	shards []shardLog
	// While on is set, delivery spans are recorded for events with
	// seq % spanEvery == 0.
	on        atomic.Bool
	spanEvery int
	ids       atomic.Uint64
}

func newRecorder(clk clock, seqAttr schema.AttrID, maxSeq, shards int) *recorder {
	r := &recorder{
		clk:     clk,
		seqAttr: seqAttr,
		last:    make([]atomic.Int64, maxSeq),
		shards:  make([]shardLog, shards),
	}
	r.ids.Store(idOther)
	return r
}

func (r *recorder) nextID() uint64 { return r.ids.Add(1) }

// note records one delivery of event seq to harness subscription sub.
func (r *recorder) note(shard, seq, sub int, start int64, text string) {
	if seq >= 0 && seq < len(r.last) {
		for {
			old := r.last[seq].Load()
			if start <= old || r.last[seq].CompareAndSwap(old, start) {
				break
			}
		}
	}
	l := &r.shards[shard]
	l.mu.Lock()
	l.ds = append(l.ds, delivery{Seq: int32(seq), Sub: int32(sub)})
	if text != "" {
		l.texts = append(l.texts, text)
	}
	if r.on.Load() && seq >= 0 && seq%r.spanEvery == 0 {
		l.spans = append(l.spans, span{ID: r.nextID(), Parent: rootID(seq), Name: "deliver", Key: int64(seq), Start: start, End: r.clk.now()})
	}
	l.mu.Unlock()
}

// callback is the delivery function of harness subscription sub, owned
// by broker shard.
func (r *recorder) callback(sub, shard int) broker.DeliveryFunc {
	return func(_ subid.ID, ev *schema.Event) {
		start := r.clk.now()
		seq := -1
		if v, ok := ev.Value(r.seqAttr); ok {
			seq = int(v.Num)
		}
		r.note(shard, seq, sub, start, "")
	}
}

// deliveries drains every sink. pushed lists the deliveries that carried
// an event text (wire pushes), in the order of texts. Callers ensure the
// engine is quiescent.
func (r *recorder) deliveries() (ds, pushed []delivery, texts []string, spans []span) {
	for i := range r.shards {
		l := &r.shards[i]
		l.mu.Lock()
		ds = append(ds, l.ds...)
		if len(l.texts) > 0 {
			pushed = append(pushed, l.ds...)
			texts = append(texts, l.texts...)
		}
		spans = append(spans, l.spans...)
		l.ds, l.texts, l.spans = nil, nil, nil
		l.mu.Unlock()
	}
	return ds, pushed, texts, spans
}
