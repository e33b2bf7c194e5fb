package main

import (
	"runtime"
	"sort"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/summary"
	"github.com/subsum/subsum/internal/topology"
)

// replayStats holds the per-call costs of layer functions replayed from
// outside the engine on the run's own inputs (traced run only).
type replayStats struct {
	matchUS, collected, unique float64
	deliverExactUS             float64
	encodeUS, mergeUS          float64
	decodeUS, parseUS          float64
}

// replaySamples caps each replay's call count.
const replaySamples = 3000

// timeCalls runs fn for each index under one replay root span and
// returns the mean call time in µs.
func (r *runner) timeCalls(name string, n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	// Start every replay from a collected heap and warm caches, so one
	// replay's garbage is not charged to the next.
	for i := 0; i < min(n, 100); i++ {
		fn(i)
	}
	runtime.GC()
	root := span{ID: r.rec.nextID(), Name: "replay", Start: r.clk.now()}
	var total int64
	for i := 0; i < n; i++ {
		t0 := r.clk.now()
		fn(i)
		t1 := r.clk.now()
		total += t1 - t0
		r.spans = append(r.spans, span{ID: r.rec.nextID(), Parent: root.ID, Name: name, Key: int64(i), Start: t0, End: t1})
	}
	root.End = r.clk.now()
	r.spans = append(r.spans, root)
	return float64(total) / float64(n) / 1e3
}

// sampleSeqs picks up to n published sequence numbers spread evenly
// over the run.
func (r *runner) sampleSeqs(n int) []int {
	var pub []int
	for seq := 0; seq < r.nextSeq; seq++ {
		if r.events[seq].Published {
			pub = append(pub, seq)
		}
	}
	if len(pub) <= n {
		return pub
	}
	out := make([]int, n)
	for i := range out {
		out[i] = pub[i*len(pub)/n]
	}
	return out
}

// replay measures the layers the live run cannot time from outside.
func (r *runner) replay(ds []delivery) (replayStats, error) {
	var rp replayStats
	seqs := r.sampleSeqs(replaySamples)
	evs := make([]*schema.Event, len(seqs))
	for i, seq := range seqs {
		evs[i] = r.in.event(seq)
	}

	// summary: Algorithm 1 on each event's ingress broker's merged
	// summary, with the §5.2.4 operation counts.
	matchers := map[topology.NodeID]*summary.Matcher{}
	for _, seq := range seqs {
		b := r.in.ingressOf(seq)
		if matchers[b] == nil {
			sm, _ := r.net.Broker(b).SnapshotMerged()
			m := sm.NewMatcher()
			for _, ev := range evs[:min(len(evs), 64)] { // size the scratch
				m.MatchKeysWithCost(ev)
			}
			matchers[b] = m
		}
	}
	var collected, unique int
	rp.matchUS = r.timeCalls("summary.MatchKeysWithCost", len(seqs), func(i int) {
		_, c := matchers[r.in.ingressOf(seqs[i])].MatchKeysWithCost(evs[i])
		collected += c.CollectedIDs
		unique += c.UniqueIDs
	})
	if len(seqs) > 0 {
		rp.collected = float64(collected) / float64(len(seqs))
		rp.unique = float64(unique) / float64(len(seqs))
	}

	// schema: the event codec and the wire text parser.
	bufs := make([][]byte, len(evs))
	texts := make([]string, len(evs))
	for i, ev := range evs {
		bufs[i] = schema.EncodeEvent(nil, ev)
		texts[i] = r.in.text(seqs[i])
	}
	rp.decodeUS = r.timeCalls("schema.DecodeEvent", len(bufs), func(i int) {
		_, _, _ = schema.DecodeEvent(r.in.schema, bufs[i])
	})
	rp.parseUS = r.timeCalls("schema.ParseEvent", len(texts), func(i int) {
		_, _ = schema.ParseEvent(r.in.schema, texts[i])
	})

	// summary codec: encode each period's per-broker deltas and merge
	// them into one accumulator, as Algorithm 2 does on receipt.
	deltas := r.periodDeltas()
	var encTotal, mergeTotal float64
	var calls int
	for _, period := range deltas {
		acc := summary.New(r.in.schema, interval.Lossy)
		encs := make([][]byte, len(period))
		encTotal += r.timeCalls("summary.Encode", len(period), func(i int) {
			encs[i] = period[i].Encode(nil)
		}) * float64(len(period))
		mergeTotal += r.timeCalls("summary.MergeEncoded", len(period), func(i int) {
			_ = acc.MergeEncoded(encs[i])
		}) * float64(len(period))
		calls += len(period)
	}
	if calls > 0 {
		rp.encodeUS, rp.mergeUS = encTotal/float64(calls), mergeTotal/float64(calls)
	}

	// broker: exact re-match at the owner, replayed on a replica of the
	// final subscription population with no-op consumers.
	var err error
	rp.deliverExactUS, err = r.replayDeliverExact(ds)
	if err != nil {
		return rp, err
	}

	return rp, nil
}

// periodDeltas rebuilds the per-broker deltas of the run's propagation
// periods from their churn batches: births inserted, deaths retracted.
func (r *runner) periodDeltas() [][]*summary.Summary {
	var out [][]*summary.Summary
	build := func(add func(at topology.NodeID) (*summary.Summary, bool)) []*summary.Summary {
		var ps []*summary.Summary
		for b := 0; b < r.in.nBroker; b++ {
			if s, ok := add(topology.NodeID(b)); ok {
				ps = append(ps, s)
			}
		}
		return ps
	}
	for k := 0; k < len(r.periods) && k < len(r.churnBatches); k++ {
		p := r.churnBatches[k]
		out = append(out, build(func(at topology.NodeID) (*summary.Summary, bool) {
			s := summary.New(r.in.schema, interval.Lossy)
			used := false
			for _, b := range p.Born {
				if i, ok := r.churnSub[b.Handle]; ok && r.subs[i].at == at {
					_ = s.Insert(r.subs[i].id, r.subs[i].sub)
					used = true
				}
			}
			for _, h := range p.Died {
				if i, ok := r.churnSub[h]; ok && r.subs[i].at == at {
					s.AddRetraction(r.subs[i].id.Key())
					used = true
				}
			}
			return s, used
		}))
	}
	return out
}

// replayDeliverExact times Broker.DeliverExact for delivered (event,
// owner) pairs on a replica network with no-op consumers.
func (r *runner) replayDeliverExact(ds []delivery) (float64, error) {
	type pair struct {
		seq   int
		owner topology.NodeID
	}
	seen := map[pair]bool{}
	var pairs []pair
	for _, d := range ds {
		if d.Sub < 0 || int(d.Sub) >= len(r.subs) || d.Seq < 0 {
			continue
		}
		p := pair{int(d.Seq), r.subs[d.Sub].at}
		if !seen[p] {
			seen[p] = true
			pairs = append(pairs, p)
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].seq != pairs[j].seq {
			return pairs[i].seq < pairs[j].seq
		}
		return pairs[i].owner < pairs[j].owner
	})
	if len(pairs) > replaySamples {
		step := make([]pair, replaySamples)
		for i := range step {
			step[i] = pairs[i*len(pairs)/replaySamples]
		}
		pairs = step
	}
	replica, _, err := newNetwork(r.in.schema)
	if err != nil {
		return 0, err
	}
	defer replica.Close()
	noop := func(subid.ID, *schema.Event) {}
	for _, i := range r.liveSubs() {
		if _, err := replica.Subscribe(r.subs[i].at, r.subs[i].sub, noop); err != nil {
			return 0, err
		}
	}
	if _, err := replica.Propagate(); err != nil {
		return 0, err
	}
	evs := make([]*schema.Event, len(pairs))
	for i, p := range pairs {
		evs[i] = r.in.event(p.seq)
	}
	if len(evs) > 0 {
		for b := 0; b < replica.Len(); b++ { // build every match snapshot first
			replica.Broker(topology.NodeID(b)).DeliverExact(evs[0])
		}
	}
	return r.timeCalls("broker.DeliverExact", len(pairs), func(i int) {
		replica.Broker(pairs[i].owner).DeliverExact(evs[i])
	}), nil
}
