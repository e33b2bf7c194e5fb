package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"github.com/subsum/subsum/internal/core"
	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/metrics"
	"github.com/subsum/subsum/internal/netsim"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/topology"
	"github.com/subsum/subsum/internal/wire"
	"github.com/subsum/subsum/internal/workload"
)

// subRec is one subscription the harness registered.
type subRec struct {
	sub  *schema.Subscription
	at   topology.NodeID
	id   subid.ID
	life subLife
}

// period is one propagation period run by the control loop.
type period struct {
	start, end int64
}

// runner holds one benchmark run: inputs, the live engine, and every
// measurement taken from outside it.
type runner struct {
	sp      spec
	in      *inputs
	seed    int64
	seconds float64
	traced  bool
	clk     clock
	rec     *recorder

	net *core.Network
	reg *metrics.Registry
	// start is the engine's accounting when measurement began (after
	// setup and warm-up), and startSeq the first measured event.
	start    counters
	startSeq int

	subs    []subRec
	events  []eventLife
	pubEnd  []int64 // Publish return per seq
	dueAt   []int64 // open-loop due time per seq (0: not open-loop)
	nextSeq int

	// churn inputs, generated before the run: one batch per possible
	// period, subscriptions placed at pre-drawn brokers.
	churnBatches []workload.ChurnPeriod
	churnAt      map[int]topology.NodeID
	churnSub     map[int]int // churn handle -> harness sub index
	nextBatch    int         // next churn batch to apply
	periods      []period
	pendingVis   []int // subs waiting for the next period to become visible

	// wire workload: (broker, local) -> harness sub index
	wireMu   sync.Mutex
	wireSubs map[[2]uint32]int

	// measurements
	setupS      []float64
	eps         []float64 // untraced drain rounds (events/s)
	epsTraced   []float64
	openLat     []float64 // due -> last delivery, ms, open-loop events in order
	wireLat     []float64 // wire workload: send -> last push, ms
	late        []float64 // generator lateness, ms
	wireRTT     []float64 // wire publish op round trip, ms
	wireSeqs    []int     // sequence numbers published through the wire
	periodMS    []float64
	inflight    []int64
	publishUS   []float64
	flushMS     []float64
	subUS       []float64
	unsubUS     []float64
	pingUS      []float64
	opsAttempts int
	opsFailed   int
	cpuUS       float64 // process CPU over untraced drain rounds
	allocB      float64 // heap allocation over the same rounds
	cpuEvents   int
	rounds      int    // drain rounds so far; odd ones are traced
	spans       []span // main and control goroutine spans (traced run)
	ctlSpans    []span
	traceSeqs   []int // sequence numbers with a root span
	notes       []string
	// Owned by the control goroutine while it runs.
	ctlInflight []int64
	ctlAttempts int
	ctlFailed   int
	ctlNotes    []string
}

func newRunner(sp spec, seed int64, seconds float64, traced bool) (*runner, error) {
	n := topology.CW24().Len()
	in, err := newInputs(sp, seed, n)
	if err != nil {
		return nil, err
	}
	r := &runner{sp: sp, in: in, seed: seed, seconds: seconds, traced: traced, clk: clock{base: time.Now()}}
	// Every sequence number the run can reach, so delivery callbacks
	// index a fixed array. The ceilings are rates no host is expected to
	// beat (a drain at 60k events/s, a loopback round trip under 33 µs); a
	// phase that reaches its ceiling stops early and says so.
	const maxDrainRate, maxWireRate = 60000, 30000
	maxSeq := int(maxDrainRate*(warmup.Seconds()+seconds*sp.drainShare)+sp.openRate*seconds*sp.openShare+maxWireRate*seconds*sp.wireShare) + 5*sp.drainRound + 1000
	r.rec = newRecorder(r.clk, in.seqAttr, maxSeq, n+1)
	if traced {
		r.rec.spanEvery = sp.deliverSpanEvery
	}
	r.events = make([]eventLife, maxSeq)
	r.pubEnd = make([]int64, maxSeq)
	r.dueAt = make([]int64, maxSeq)
	r.subs = make([]subRec, len(in.subs))
	for i, s := range in.subs {
		r.subs[i] = subRec{sub: s, at: in.subAt[i]}
	}
	// Churn inputs: the churn workload's batches run beside its open loop;
	// the others run quiet periods that each add one subscription per
	// broker and retract the previous period's, so every period carries a
	// real delta while the population stays the same.
	cfg, periods := idleChurn, idlePeriods
	if sp.churn != nil {
		cfg, periods = *sp.churn, int(seconds*sp.openShare*1e9/periodEvery)+2
	}
	cfg.Seed = seed + 1
	ch, err := workload.NewChurn(in.gen, cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 2))
	r.churnAt = map[int]topology.NodeID{}
	r.churnSub = map[int]int{}
	for k := 0; k < periods; k++ {
		p := ch.Period()
		for _, b := range p.Born {
			r.churnAt[b.Handle] = topology.NodeID(rng.Intn(n))
		}
		r.churnBatches = append(r.churnBatches, p)
	}
	return r, nil
}

func (r *runner) capSeq() int { return len(r.events) }

func newNetwork(s *schema.Schema) (*core.Network, *metrics.Registry, error) {
	// The engine as subsumd ships it: CW24, lossy AACS equality folding,
	// one event per handler wakeup, no match shards, no full sync.
	reg := metrics.NewRegistry()
	net, err := core.New(core.Config{Topology: topology.CW24(), Schema: s, Mode: interval.Lossy, Metrics: reg})
	return net, reg, err
}

// run executes the workload's phases and leaves the engine quiescent.
// The measured phases run interleaved, a tenth of each per cycle, so that
// every metric samples the whole run: the host's speed drifts over
// seconds, and a phase run in one block would catch only its stretch.
func (r *runner) run() error {
	var addr string
	var sub *wire.Client // the wire workload's subscriber connection
	if r.sp.wire {
		srv, s, a, err := r.setupWire()
		if err != nil {
			return err
		}
		defer srv.Close()
		defer s.Close()
		sub, addr = s, a
	} else {
		if err := r.setup(); err != nil {
			return err
		}
		srv := wire.NewServer(r.net, r.in.schema)
		a, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer srv.Close()
		addr = a
	}
	cl, err := wire.Dial(addr, nil)
	if err != nil {
		return err
	}
	defer cl.Close()
	// Warm up for a second of full load: caches, match snapshots, pools,
	// and the host itself, whose first second under load runs slower.
	for warm := time.Now().Add(warmup); time.Now().Before(warm); {
		r.drainRound(r.sp.drainRound, false)
	}
	for i := 0; i < 200; i++ { // warm the connection and the codec paths
		r.wirePublish(cl, false)
	}
	r.wireSeqs = r.wireSeqs[:0]
	r.start, r.startSeq = r.snapshot(), r.nextSeq
	slice := func(share float64) time.Duration { return time.Duration(r.seconds * 1e9 * share / cycles) }
	for c := 0; c < cycles; c++ {
		if r.sp.churn == nil {
			r.drain(slice(r.sp.drainShare))
		}
		if r.sp.openShare > 0 {
			if err := r.openLoop(slice(r.sp.openShare)); err != nil {
				return err
			}
		}
		if r.sp.churn != nil {
			// Drain the population the churn left behind: live churned
			// subscriptions, retracted rows and compactions included.
			r.drain(slice(r.sp.drainShare))
		} else if err := r.quiet(idlePeriods / cycles); err != nil {
			return err
		}
		// On the wire workload, every other cycle's publish ops are traced.
		r.wireOps(cl, slice(r.sp.wireShare), r.sp.wire && r.traced && c%2 == 1)
	}
	if r.sp.wire {
		// Every push was written before the bus went quiet, and the
		// subscriber connection reads in order: once a ping on it returns,
		// every push has been recorded.
		r.net.Flush()
		if err := sub.Ping(); err != nil {
			return fmt.Errorf("wire ping: %w", err)
		}
		for _, seq := range r.wireSeqs {
			if last := r.rec.last[seq].Load(); last > 0 && r.events[seq].Published {
				r.wireLat = append(r.wireLat, float64(last-r.events[seq].PubStart)/1e6)
			}
		}
	}
	if r.traced {
		r.ping(cl)
	}
	return nil
}

// quiet runs back-to-back propagation periods, each after a small churn
// batch, on an otherwise idle network: the visibility delay of a new
// subscription when nothing else competes. Periods are in process on
// every workload, as subsumd's period ticker runs them.
func (r *runner) quiet(n int) error {
	for i := 0; i < n && r.nextBatch < len(r.churnBatches); i++ {
		k := r.nextBatch
		r.nextBatch++
		r.applyChurn(r.churnBatches[k], 0)
		s := r.clk.now()
		_, err := r.net.Propagate()
		e := r.clk.now()
		r.opsAttempts++
		if err != nil {
			r.opsFailed++
			return fmt.Errorf("propagate: %w", err)
		}
		r.periods = append(r.periods, period{start: s, end: e})
		r.periodMS = append(r.periodMS, float64(e-s)/1e6)
		for _, j := range r.pendingVis {
			r.subs[j].life.Visible = e
		}
		r.pendingVis = r.pendingVis[:0]
		if r.traced {
			r.spans = append(r.spans, span{ID: r.rec.nextID(), Name: "core.Propagate", Key: int64(k), Start: s, End: e})
		}
	}
	return nil
}

// setup builds the network, registers every static subscription and runs
// the first propagation period; it repeats setupReps times and keeps the
// last network.
func (r *runner) setup() error {
	for rep := 0; rep < setupReps; rep++ {
		if r.net != nil {
			r.net.Close()
		}
		t0 := time.Now()
		net, reg, err := newNetwork(r.in.schema)
		if err != nil {
			return err
		}
		r.net, r.reg = net, reg
		for i := range r.in.subs {
			at := r.in.subAt[i]
			id, err := net.Subscribe(at, r.in.subs[i], r.rec.callback(i, int(at)))
			if err != nil {
				return fmt.Errorf("setup subscribe %d: %w", i, err)
			}
			r.subs[i].id = id
		}
		if _, err := net.Propagate(); err != nil {
			return fmt.Errorf("setup propagate: %w", err)
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}
	r.opsAttempts += len(r.in.subs)
	vis := r.clk.now()
	for i := range r.subs {
		r.subs[i].life = subLife{Visible: vis, UnsubStart: never, UnsubEnd: never}
	}
	return nil
}

// publish sends event seq in process and records its life.
func (r *runner) publish(seq int, ev *schema.Event, traced bool) {
	t0 := r.clk.now()
	err := r.net.Publish(r.in.ingressOf(seq), ev)
	t1 := r.clk.now()
	r.opsAttempts++
	if err != nil {
		r.opsFailed++
		r.note("publish %d: %v", seq, err)
		return
	}
	r.events[seq] = eventLife{Published: true, PubStart: t0, DoneBy: never}
	r.pubEnd[seq] = t1
	if traced {
		r.publishUS = append(r.publishUS, float64(t1-t0)/1e3)
		r.spans = append(r.spans, span{ID: idPublish | uint64(seq), Parent: rootID(seq), Name: "core.Publish", Key: int64(seq), Start: t0, End: t1})
		r.traceSeqs = append(r.traceSeqs, seq)
	}
}

func (r *runner) note(format string, args ...any) {
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

func (r *runner) ctlNote(format string, args ...any) {
	if len(r.ctlNotes) < 20 {
		r.ctlNotes = append(r.ctlNotes, fmt.Sprintf(format, args...))
	}
}

// drainRound publishes n fresh events as fast as one goroutine can and
// waits for the bus to empty. It returns events/s from first publish to
// the end of Flush, or 0 when the sequence space is exhausted.
func (r *runner) drainRound(n int, traced bool) float64 {
	first := r.nextSeq
	if first+n > r.capSeq() {
		return 0
	}
	r.nextSeq += n
	evs := make([]*schema.Event, n)
	for i := range evs {
		evs[i] = r.in.event(first + i)
	}
	r.rec.on.Store(traced)
	defer r.rec.on.Store(false)
	t0 := r.clk.now()
	for i, ev := range evs {
		r.publish(first+i, ev, traced)
	}
	t1 := r.clk.now()
	r.net.Flush()
	t2 := r.clk.now()
	for seq := first; seq < first+n; seq++ {
		if r.events[seq].Published {
			r.events[seq].DoneBy = t2
		}
	}
	if traced {
		r.flushMS = append(r.flushMS, float64(t2-t1)/1e6)
		r.spans = append(r.spans, span{ID: r.rec.nextID(), Name: "core.Flush", Key: int64(first), Start: t1, End: t2})
	}
	return float64(n) / (float64(t2-t0) / 1e9)
}

// drain runs closed-loop drain rounds for the budget (at least one). In
// the traced run, rounds alternate untraced and traced, so the two
// throughputs give the tracing overhead from one process.
func (r *runner) drain(budget time.Duration) {
	for end := time.Now().Add(budget); ; {
		traced := r.traced && r.rounds%2 == 1
		r.rounds++
		var cpu0 float64
		var alloc0 uint64
		if !traced {
			cpu0, alloc0 = cpuSeconds(), allocBytes()
		}
		eps := r.drainRound(r.sp.drainRound, traced)
		if eps == 0 {
			r.note("drain stopped: sequence space exhausted")
			return
		}
		if traced {
			r.epsTraced = append(r.epsTraced, eps)
		} else {
			r.cpuUS += (cpuSeconds() - cpu0) * 1e6
			r.allocB += float64(allocBytes() - alloc0)
			r.cpuEvents += r.sp.drainRound
			r.eps = append(r.eps, eps)
		}
		if !time.Now().Before(end) {
			return
		}
	}
}

// openLoop publishes a fixed-rate schedule built up front while the
// control loop runs propagation periods beside it. Each event is timed
// from its due time, so a stall also charges the events queued behind it.
func (r *runner) openLoop(dur time.Duration) error {
	n := int(r.sp.openRate * dur.Seconds())
	first := r.nextSeq
	r.nextSeq += n
	evs := make([]*schema.Event, n)
	for i := range evs {
		evs[i] = r.in.event(first + i)
	}
	gap := 1e9 / r.sp.openRate
	infl := r.reg.Gauge("bus_inflight")
	st0 := r.net.Stats()

	r.rec.on.Store(r.traced)
	defer r.rec.on.Store(false)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if r.sp.churn != nil {
		wg.Add(1)
		go r.control(stop, &wg)
	}

	tm, err := newTimer()
	if err != nil {
		return err
	}
	defer tm.Close()
	var samples []int64
	t0 := r.clk.now() + int64(time.Millisecond)
	for i := 0; i < n; {
		now := r.clk.now()
		due := t0 + int64(float64(i)*gap)
		if due > now {
			samples = append(samples, infl.Value())
			if err := tm.sleep(time.Duration(due - now)); err != nil {
				return err
			}
			continue
		}
		for i < n {
			due = t0 + int64(float64(i)*gap)
			if due > now {
				break
			}
			seq := first + i
			r.dueAt[seq] = due
			r.publish(seq, evs[i], r.traced)
			r.late = append(r.late, float64(r.events[seq].PubStart-due)/1e6)
			evs[i] = nil
			i++
		}
	}
	close(stop)
	wg.Wait()
	r.net.Flush()
	tEnd := r.clk.now()
	st1 := r.net.Stats()
	r.settleDoneBy(first, first+n, tEnd)
	for seq := first; seq < first+n; seq++ {
		if last := r.rec.last[seq].Load(); last > 0 && r.events[seq].Published {
			r.openLat = append(r.openLat, float64(last-r.dueAt[seq])/1e6)
		}
	}
	r.inflight = append(r.inflight, samples...)
	msgs := st1.Messages[netsim.KindEvent] - st0.Messages[netsim.KindEvent] + st1.Messages[netsim.KindDeliver] - st0.Messages[netsim.KindDeliver]
	return checkBacklog(samples, r.sp.openRate, float64(msgs)/float64(n))
}

// settleDoneBy proves when each event in [lo, hi) was finished: the end
// of the first propagation period that started after Publish returned
// (every period quiesces the bus), else the final flush at tEnd.
func (r *runner) settleDoneBy(lo, hi int, tEnd int64) {
	ps := r.periods
	for seq := lo; seq < hi; seq++ {
		if !r.events[seq].Published {
			continue
		}
		pe := r.pubEnd[seq]
		j := sort.Search(len(ps), func(k int) bool { return ps[k].start >= pe })
		if j < len(ps) {
			r.events[seq].DoneBy = ps[j].end
		} else {
			r.events[seq].DoneBy = tEnd
		}
	}
}

// checkBacklog fails the run when the bus backlog grew across the open
// loop: Publish never pushes back, so an offered rate above capacity
// would otherwise show up as a latency figure instead of a failure.
// msgsPerEvent converts the in-flight message count into events.
func checkBacklog(s []int64, rate, msgsPerEvent float64) error {
	if len(s) < 20 {
		return nil
	}
	q := len(s) / 5
	head, tail := 0.0, 0.0
	for _, v := range s[:q] {
		head += float64(v)
	}
	for _, v := range s[len(s)-q:] {
		tail += float64(v)
	}
	head /= float64(q)
	tail /= float64(q)
	// A backlog of 50 ms of offered load (subsumd's default p99 target)
	// that is still there at the end of the phase is a queue that grows.
	limit := rate * 0.05 * msgsPerEvent
	if tail > head+limit && tail > 2*head {
		return fmt.Errorf("open loop at %.0f ev/s built a growing backlog: bus in-flight %.0f messages at start, %.0f at end", rate, head, tail)
	}
	return nil
}

// control runs propagation periods on a fixed cadence until stop closes;
// with churn it applies one churn batch before each period.
func (r *runner) control(stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	next := r.clk.now()
	timer := time.NewTimer(0)
	<-timer.C
	infl := r.reg.Gauge("bus_inflight")
	for k := 0; ; k++ {
		if now := r.clk.now(); now < next {
			timer.Reset(time.Duration(next - now))
			select {
			case <-stop:
				timer.Stop()
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		start := r.clk.now()
		r.ctlInflight = append(r.ctlInflight, infl.Value())
		next += periodEvery
		if next < start {
			next = start
		}
		var root span
		if r.traced {
			root = span{ID: r.rec.nextID(), Name: "period", Key: int64(k), Start: start}
		}
		if r.nextBatch < len(r.churnBatches) {
			r.applyChurn(r.churnBatches[r.nextBatch], root.ID)
			r.nextBatch++
		}
		s := r.clk.now()
		_, err := r.net.Propagate()
		e := r.clk.now()
		r.ctlAttempts++
		if err != nil {
			r.ctlFailed++
			r.ctlNote("propagate: %v", err)
		}
		r.periods = append(r.periods, period{start: s, end: e})
		r.periodMS = append(r.periodMS, float64(e-s)/1e6)
		for _, i := range r.pendingVis {
			r.subs[i].life.Visible = e
		}
		r.pendingVis = r.pendingVis[:0]
		if r.traced {
			root.End = e
			r.ctlSpans = append(r.ctlSpans, root, span{ID: r.rec.nextID(), Parent: root.ID, Name: "core.Propagate", Key: int64(k), Start: s, End: e})
		}
	}
}

// applyChurn registers one batch's births and retires its deaths.
func (r *runner) applyChurn(p workload.ChurnPeriod, parent uint64) {
	for _, h := range p.Died {
		i := r.churnSub[h]
		t0 := r.clk.now()
		err := r.net.Unsubscribe(r.subs[i].id)
		t1 := r.clk.now()
		r.ctlAttempts++
		if err != nil {
			r.ctlFailed++
			r.ctlNote("unsubscribe %v: %v", r.subs[i].id, err)
			continue
		}
		r.subs[i].life.UnsubStart, r.subs[i].life.UnsubEnd = t0, t1
		r.unsubUS = append(r.unsubUS, float64(t1-t0)/1e3)
		if r.traced {
			r.ctlSpans = append(r.ctlSpans, span{ID: r.rec.nextID(), Parent: parent, Name: "core.Unsubscribe", Start: t0, End: t1})
		}
	}
	for _, b := range p.Born {
		at := r.churnAt[b.Handle]
		i := len(r.subs)
		t0 := r.clk.now()
		id, err := r.net.Subscribe(at, b.Sub, r.rec.callback(i, int(at)))
		t1 := r.clk.now()
		r.ctlAttempts++
		if err != nil {
			r.ctlFailed++
			r.ctlNote("subscribe: %v", err)
			continue
		}
		r.subs = append(r.subs, subRec{sub: b.Sub, at: at, id: id, life: subLife{Visible: never, UnsubStart: never, UnsubEnd: never}})
		r.churnSub[b.Handle] = i
		r.pendingVis = append(r.pendingVis, i)
		r.subUS = append(r.subUS, float64(t1-t0)/1e3)
		if r.traced {
			r.ctlSpans = append(r.ctlSpans, span{ID: r.rec.nextID(), Parent: parent, Name: "core.Subscribe", Start: t0, End: t1})
		}
	}
}

// wirePublish runs one publish op on cl and records it; the server
// flushes before replying, so the reply proves the event done.
func (r *runner) wirePublish(cl *wire.Client, traced bool) (rtt int64, ok bool) {
	seq := r.nextSeq
	if seq >= r.capSeq() {
		return 0, false
	}
	r.nextSeq++
	text := r.in.text(seq)
	t0 := r.clk.now()
	err := cl.Publish(int(r.in.ingressOf(seq)), text)
	t1 := r.clk.now()
	r.opsAttempts++
	if err != nil {
		r.opsFailed++
		r.note("wire publish %d: %v", seq, err)
		return t1 - t0, true
	}
	r.events[seq] = eventLife{Published: true, PubStart: t0, DoneBy: t1}
	r.pubEnd[seq] = t1
	r.wireSeqs = append(r.wireSeqs, seq)
	if traced {
		r.spans = append(r.spans, span{ID: idPublish | uint64(seq), Parent: rootID(seq), Name: "wire.Publish", Key: int64(seq), Start: t0, End: t1})
		r.traceSeqs = append(r.traceSeqs, seq)
	}
	return t1 - t0, true
}

// wireOps drives the network through the TCP front door for dur: one
// connection, a closed loop of publish ops. It runs at least minWireOps
// ops, so that a run of cycles slices always holds the 1,000 round trips
// a p99 needs, even on a host too slow to fill dur.
func (r *runner) wireOps(cl *wire.Client, dur time.Duration, traced bool) {
	const minWireOps = 1000 / cycles
	r.rec.on.Store(traced)
	defer r.rec.on.Store(false)
	for i, end := 0, r.clk.now()+int64(dur); i < minWireOps || r.clk.now() < end; i++ {
		rtt, ok := r.wirePublish(cl, traced)
		if !ok {
			r.note("wire ops stopped: sequence space exhausted")
			return
		}
		r.wireRTT = append(r.wireRTT, float64(rtt)/1e6)
	}
}

func (r *runner) ping(cl *wire.Client) {
	for i := 0; i < 1000; i++ {
		t0 := r.clk.now()
		if err := cl.Ping(); err != nil {
			r.note("ping: %v", err)
			return
		}
		r.pingUS = append(r.pingUS, float64(r.clk.now()-t0)/1e3)
	}
}

// setupWire is set-up on the daemon path: a subscriber connection
// registers every subscription, receives delivery pushes and runs the
// first propagation period over the wire. It repeats setupReps times and
// keeps the last server and connection.
func (r *runner) setupWire() (*wire.Server, *wire.Client, string, error) {
	shard := r.in.nBroker // the push sink
	onPush := func(b int, local uint32, text string) {
		t := r.clk.now()
		seq, ok := seqFromText(text)
		if !ok {
			seq = -1
		}
		r.wireMu.Lock()
		i, known := r.wireSubs[[2]uint32{uint32(b), local}]
		r.wireMu.Unlock()
		if !known {
			i = -1
		}
		r.rec.note(shard, seq, i, t, text)
	}
	var srv *wire.Server
	var sub *wire.Client
	var addr string
	for rep := 0; rep < setupReps; rep++ {
		if rep > 0 {
			sub.Close()
			srv.Close()
			r.net.Close()
		}
		t0 := time.Now()
		net, reg, err := newNetwork(r.in.schema)
		if err != nil {
			return nil, nil, "", err
		}
		r.net, r.reg = net, reg
		srv = wire.NewServer(net, r.in.schema)
		if addr, err = srv.Listen("127.0.0.1:0"); err != nil {
			return nil, nil, "", err
		}
		if sub, err = wire.Dial(addr, onPush); err != nil {
			srv.Close()
			return nil, nil, "", err
		}
		r.wireMu.Lock()
		r.wireSubs = make(map[[2]uint32]int, len(r.in.subs))
		r.wireMu.Unlock()
		for i, text := range r.in.subTexts {
			b, local, err := sub.Subscribe(int(r.in.subAt[i]), text)
			if err != nil {
				sub.Close()
				srv.Close()
				return nil, nil, "", fmt.Errorf("wire subscribe %q: %w", text, err)
			}
			r.wireMu.Lock()
			r.wireSubs[[2]uint32{uint32(b), local}] = i
			r.wireMu.Unlock()
		}
		if _, err := sub.Propagate(); err != nil {
			sub.Close()
			srv.Close()
			return nil, nil, "", err
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}
	r.opsAttempts += len(r.in.subs)
	vis := r.clk.now()
	for i := range r.subs {
		r.subs[i].life = subLife{Visible: vis, UnsubStart: never, UnsubEnd: never}
	}
	return srv, sub, addr, nil
}

// liveSubs lists the harness indexes of live subscriptions (for the
// traced replay, which rebuilds a replica of the final population).
func (r *runner) liveSubs() []int {
	var out []int
	for i, s := range r.subs {
		if s.life.UnsubStart == never {
			out = append(out, i)
		}
	}
	return out
}
