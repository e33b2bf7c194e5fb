package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"

	"github.com/subsum/subsum/internal/netsim"
)

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// allocBytes is the cumulative heap allocation of the process.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// gcPauses reads the cumulative stop-the-world GC pause histogram.
func gcPauses() *metrics.Float64Histogram {
	for _, name := range []string{"/sched/pauses/total/gc:seconds", "/gc/pauses:seconds"} {
		s := []metrics.Sample{{Name: name}}
		metrics.Read(s)
		if s[0].Value.Kind() == metrics.KindFloat64Histogram {
			return s[0].Value.Float64Histogram()
		}
	}
	return nil
}

// histQuantile is the q-quantile of the pauses added between two reads
// of the runtime's pause histogram (upper bucket bound; 0 with no pause).
func histQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	if before == nil || after == nil {
		return 0
	}
	var total uint64
	d := make([]uint64, len(after.Counts))
	for i := range after.Counts {
		d[i] = after.Counts[i] - before.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var run uint64
	for i, c := range d {
		run += c
		if run >= want {
			hi := after.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = after.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// counters is a snapshot of the engine's own accounting and the
// runtime's pause histogram.
type counters struct {
	reg   map[string]float64
	bus   netsim.Stats
	pause *metrics.Float64Histogram
}

func (r *runner) snapshot() counters {
	return counters{reg: r.reg.Map(), bus: r.net.Stats(), pause: gcPauses()}
}

// regSum sums a per-broker family: "family{i}<suffix>" over every broker.
func (c counters) regSum(family, suffix string) float64 {
	var s float64
	for k, v := range c.reg {
		if strings.HasPrefix(k, family+"{") && strings.HasSuffix(k, "}"+suffix) {
			s += v
		}
	}
	return s
}

// result is what one run prints.
type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

// quantileOr records a percentile or, when the samples-beyond rule
// refuses it, a note and NaN (which fails the run's metric check).
func (r *runner) quantileOr(name string, samples []float64, q float64, window int) float64 {
	v, err := windowedQuantile(samples, q, window)
	if err != nil {
		r.note("%s: %v", name, err)
		return math.NaN()
	}
	return v
}

// verify runs the oracle over every delivery and folds its verdict and
// the bus's own failure counters into attempted/failed.
func (r *runner) verify(ds, pushed []delivery, texts []string, end counters) {
	if len(texts) != len(pushed) {
		r.note("wire pushes: %d texts for %d deliveries", len(texts), len(pushed))
		r.opsFailed++
	} else {
		bad := 0
		for i, d := range pushed {
			if d.Seq < 0 || int(d.Seq) >= r.nextSeq || texts[i] != r.in.event(int(d.Seq)).Format(r.in.schema) {
				bad++
			}
		}
		if bad > 0 {
			r.note("wire pushes: %d deliveries carried an event other than the one published", bad)
			r.opsFailed += bad
		}
	}
	o := &oracle{
		subs:   make([]subLife, len(r.subs)),
		events: r.events[:r.nextSeq],
		matches: func(seq, sub int) bool {
			return r.subs[sub].sub.Matches(r.in.bodyEvents[r.in.body(seq)])
		},
		candidates: r.candidateIndex(),
	}
	for i, s := range r.subs {
		o.subs[i] = s.life
	}
	v := o.check(ds)
	r.opsAttempts += v.Required + r.ctlAttempts
	r.opsFailed += v.Failed() + r.ctlFailed
	r.notes = append(r.notes, r.ctlNotes...)
	if v.Failed() > 0 {
		r.note("oracle: %+v", v)
	}
	if n := end.bus.TotalDropped() + end.bus.TotalErrors(); n > 0 {
		r.note("bus: %d dropped or failed messages", n)
		r.opsFailed += int(n)
	}
}

// candidateIndex returns, per event body, the ascending harness indexes
// of subscriptions whose constrained attributes the body carries (the
// only ones that can match), computed once per body. Subscriptions that
// no event was published during the propagated life of (the short-lived
// churn subscriptions, mostly) can never be required and are left out.
func (r *runner) candidateIndex() func(seq int) []int {
	var pubs []int64
	for _, ev := range r.events[:r.nextSeq] {
		if ev.Published {
			pubs = append(pubs, ev.PubStart)
		}
	}
	sort.Slice(pubs, func(i, j int) bool { return pubs[i] < pubs[j] })
	groups := map[uint64][]int{}
	for i, s := range r.subs {
		k := sort.Search(len(pubs), func(k int) bool { return pubs[k] >= s.life.Visible })
		if k == len(pubs) || pubs[k] >= s.life.UnsubStart {
			continue
		}
		var m uint64
		for _, a := range s.sub.AttrSet() {
			m |= 1 << uint(a)
		}
		groups[m] = append(groups[m], i)
	}
	type group struct {
		mask uint64
		subs []int
	}
	var gs []group
	for m, subs := range groups {
		gs = append(gs, group{m, subs})
	}
	cache := make([][]int, numBodies)
	done := make([]bool, numBodies)
	return func(seq int) []int {
		b := r.in.body(seq)
		if done[b] {
			return cache[b]
		}
		var em uint64
		for _, f := range r.in.bodyEvents[b].Fields() {
			em |= 1 << uint(f.Attr)
		}
		var out []int
		ev := r.in.bodyEvents[b]
		for _, g := range gs {
			if g.mask&^em != 0 {
				continue
			}
			for _, i := range g.subs {
				if r.subs[i].sub.Matches(ev) {
					out = append(out, i)
				}
			}
		}
		sort.Ints(out)
		cache[b], done[b] = out, true
		return out
	}
}

// endToEndMetrics computes every end-to-end metric.
func (r *runner) endToEndMetrics(start, end counters) map[string]float64 {
	m := map[string]float64{}
	m["setup_s"] = median(r.setupS)
	m["events_per_sec"] = median(r.eps)
	m["deliver_p50_ms"] = r.quantileOr("deliver_p50_ms", r.latencies(), 0.5, latencyWindow)
	m["period_p50_ms"] = r.quantileOr("period_p50_ms", r.periodMS, 0.5, len(r.periodMS))
	m["wire_publish_p50_ms"] = r.quantileOr("wire_publish_p50_ms", r.wireRTT, 0.5, latencyWindow)
	published := end.reg["events_published"] - start.reg["events_published"]
	bytes := float64(end.bus.Bytes[netsim.KindEvent] - start.bus.Bytes[netsim.KindEvent] +
		end.bus.Bytes[netsim.KindDeliver] - start.bus.Bytes[netsim.KindDeliver])
	m["bytes_per_event"] = bytes / published
	summaryB := float64(end.bus.Bytes[netsim.KindSummary] - start.bus.Bytes[netsim.KindSummary])
	m["summary_bytes_per_period"] = summaryB / float64(len(r.periods))
	return m
}

// latencyWindow is the window of consecutive latencies a percentile is
// taken over before the median over windows (p99 needs 1,000 samples).
const latencyWindow = 1000

// tailMetrics adds the tails of the end-to-end latencies. On a shared
// 2-vCPU host they swing by half their value or more from run to run
// (fan-out multiplies each event's exposure to the host's wake-up
// stalls), wider than any admissible regression bound, so the traced run
// reports them and nothing gates them.
func (r *runner) tailMetrics(m map[string]float64) {
	m["tail.deliver_p90_ms"] = r.quantileOr("tail.deliver_p90_ms", r.latencies(), 0.9, latencyWindow)
	m["tail.deliver_p99_ms"] = r.quantileOr("tail.deliver_p99_ms", r.latencies(), 0.99, latencyWindow)
	m["tail.period_p90_ms"] = r.quantileOr("tail.period_p90_ms", r.periodMS, 0.9, len(r.periodMS))
	m["tail.wire_publish_p90_ms"] = r.quantileOr("tail.wire_publish_p90_ms", r.wireRTT, 0.9, latencyWindow)
	m["tail.wire_publish_p99_ms"] = r.quantileOr("tail.wire_publish_p99_ms", r.wireRTT, 0.99, latencyWindow)
}

// latencies are the run's publish-to-delivery times in publish order.
func (r *runner) latencies() []float64 {
	if r.sp.wire {
		return r.wireLat
	}
	return r.openLat
}

// heapLiveMB forces a collection and reads the live heap. Callers drop
// the harness's own records first, so the figure is the engine's. The
// second collection empties the sync.Pool victim caches the first one
// only demoted.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// layerMetrics computes every per-layer metric from the traced run.
func (r *runner) layerMetrics(start, end counters, ds []delivery, rp replayStats) map[string]float64 {
	m := map[string]float64{}
	published := end.reg["events_published"] - start.reg["events_published"]
	per := func(name string) float64 { return (end.reg[name] - start.reg[name]) / published }
	m["core.publish_us"] = median(r.publishUS)
	m["core.flush_ms"] = median(r.flushMS)
	m["core.subscribe_us"] = median(r.subUS)
	m["core.unsubscribe_us"] = median(r.unsubUS)
	m["core.hops_per_event"] = per("events_routed")
	m["core.deliver_sends_per_event"] = per("deliver_sends")
	m["netsim.msgs_per_event.event"] = float64(end.bus.Messages[netsim.KindEvent]-start.bus.Messages[netsim.KindEvent]) / published
	m["netsim.msgs_per_event.deliver"] = float64(end.bus.Messages[netsim.KindDeliver]-start.bus.Messages[netsim.KindDeliver]) / published
	var inflMax int64
	for _, s := range [][]int64{r.inflight, r.ctlInflight} {
		for _, x := range s {
			if x > inflMax {
				inflMax = x
			}
		}
	}
	m["netsim.inflight_max"] = float64(inflMax)
	ratio := func(family string, scale float64) float64 {
		sum := end.regSum(family, ".sum") - start.regSum(family, ".sum")
		n := end.regSum(family, ".count") - start.regSum(family, ".count")
		if n == 0 {
			return 0
		}
		return sum / n * scale
	}
	m["broker.match_us"] = ratio("broker_match_seconds", 1e6)
	m["broker.merge_ms"] = ratio("broker_merge_seconds", 1e3)
	fp := end.regSum("broker_false_positives", "") - start.regSum("broker_false_positives", "")
	arrivals := fp + float64(ownerPairs(ds, r.subs, r.startSeq))
	m["broker.false_positive_ratio"] = fp / arrivals
	m["broker.deliver_exact_us"] = rp.deliverExactUS
	m["summary.match_us"] = rp.matchUS
	m["summary.collected_ids_per_event"] = rp.collected
	m["summary.unique_ids_per_event"] = rp.unique
	m["summary.encode_us"] = rp.encodeUS
	m["summary.merge_encoded_us"] = rp.mergeUS
	m["schema.decode_us"] = rp.decodeUS
	m["schema.parse_event_us"] = rp.parseUS
	m["wire.ping_us"] = median(r.pingUS)
	m["runtime.alloc_bytes_per_event"] = r.allocB / float64(r.cpuEvents)
	m["runtime.gc_pause_p99_ms"] = histQuantile(start.pause, end.pause, 0.99) * 1e3
	cpu := r.cpuUS / float64(r.cpuEvents)
	m["process.cpu_us_per_event"] = cpu
	// The wire workload runs closed loops only: no schedule, nothing late.
	m["loadgen.late_p99_ms"] = 0
	if len(r.late) > 0 {
		m["loadgen.late_p99_ms"] = r.quantileOr("loadgen.late_p99_ms", r.late, 0.99, latencyWindow)
	}
	r.tailMetrics(m)
	m["trace.overhead_pct"] = (median(r.eps)/median(r.epsTraced) - 1) * 100
	// Replayed layers, charged at the rate the live run exercised them:
	// one Algorithm 1 match per routed hop, one exact re-match per deliver
	// arrival, one event decode per bus event or deliver message, one
	// parse per wire publish.
	explained := rp.matchUS*m["core.hops_per_event"] +
		rp.deliverExactUS*arrivals/published +
		rp.decodeUS*(m["netsim.msgs_per_event.event"]+m["netsim.msgs_per_event.deliver"])
	m["trace.explained_cpu_pct"] = explained / cpu * 100
	m["ops_failed_ratio"] = float64(r.opsFailed) / float64(r.opsAttempts)
	return m
}

// ownerPairs counts distinct (event, owning broker) pairs among the
// deliveries of events from sequence number from on: each is one exact
// re-match at the owner that found a hit.
func ownerPairs(ds []delivery, subs []subRec, from int) int {
	seen := map[[2]int32]struct{}{}
	for _, d := range ds {
		if int(d.Seq) < from || d.Sub < 0 || int(d.Sub) >= len(subs) {
			continue
		}
		seen[[2]int32{d.Seq, int32(subs[d.Sub].at)}] = struct{}{}
	}
	return len(seen)
}

// checkMetrics refuses a result that misses a declared metric or holds a
// non-finite value.
func checkMetrics(m map[string]float64, defs []metricDef) error {
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
	}
	if len(m) != len(defs) {
		return fmt.Errorf("%d metrics measured, %d declared", len(m), len(defs))
	}
	return nil
}
