// Command pubsubbench is the repository's end-to-end benchmark: it runs
// one named workload against the live engine (core.Network, and
// wire.Server over loopback), checks every delivery against an exact
// oracle, and prints its metrics by name with their units. The last
// line of standard output is one JSON object:
//
//	{"correct":true,"attempted":…,"failed":0,"metrics":{"setup_s":{"value":…,"unit":"s"},…}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run gives the per-layer ones and writes its spans under
// --out/traces. See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		name    = flag.String("workload", "", "workload: filter, fanout, churn or wire")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for trace files")
	)
	flag.Parse()
	sp, err := specByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pubsubbench:", err)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "pubsubbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	traced := *trace == 1
	env := map[string]any{
		"workload": sp.name, "seed": *seed, "seconds": *seconds, "trace": traced,
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
	}
	fmt.Printf("# pubsubbench workload=%s seed=%d seconds=%g trace=%d num_cpu=%d gomaxprocs=%d go=%s\n",
		sp.name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	r, err := newRunner(sp, *seed, *seconds, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pubsubbench: inputs:", err)
		return 1
	}
	m, err := r.measure(env, *out)
	if r.net != nil {
		r.net.Close()
	}
	for _, n := range r.notes {
		fmt.Fprintln(os.Stderr, "pubsubbench:", n)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pubsubbench:", err)
		return 1
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if err := checkMetrics(m, defs); err != nil {
		fmt.Fprintln(os.Stderr, "pubsubbench:", err)
		return 1
	}
	res := result{
		Correct:   r.opsFailed == 0,
		Attempted: r.opsAttempts,
		Failed:    r.opsFailed,
		Metrics:   map[string]map[string]any{},
	}
	for _, d := range defs {
		res.Metrics[d.Name] = map[string]any{"value": m[d.Name], "unit": d.Unit}
		fmt.Printf("%-34s %14.6g %s\n", d.Name, m[d.Name], d.Unit)
	}
	fmt.Printf("%-34s %14d\n%-34s %14d\n", "attempted", res.Attempted, "failed", res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pubsubbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// measure runs the workload, checks it, and computes the mode's metrics.
func (r *runner) measure(env map[string]any, out string) (map[string]float64, error) {
	if err := r.run(); err != nil {
		return nil, err
	}
	end := r.snapshot()
	ds, pushed, texts, dspans := r.rec.deliveries()
	r.verify(ds, pushed, texts, end)
	if r.traced {
		rp, err := r.replay(ds)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		m := r.layerMetrics(r.start, end, ds, rp)
		spans := append(append(append(r.rootSpans(), r.spans...), r.ctlSpans...), dspans...)
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		layers := selfTimes(spans)
		for _, lt := range layers {
			fmt.Fprintf(os.Stderr, "pubsubbench: span %-28s count %8d total %10.1f ms self %10.1f ms\n", lt.Name, lt.Count, lt.TotalMS, lt.SelfMS)
		}
		path := filepath.Join(out, "traces", fmt.Sprintf("%s-seed%d.json", r.sp.name, r.seed))
		if err := writeTrace(path, env, layers, spans); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		return m, nil
	}
	m := r.endToEndMetrics(r.start, end)
	// Drop the harness's own records so the live heap is the engine's.
	r.dropRecords()
	m["heap_live_mb"] = heapLiveMB()
	runtime.KeepAlive(r.net)
	return m, nil
}

// dropRecords releases every per-event record the harness kept.
func (r *runner) dropRecords() {
	r.events, r.pubEnd, r.dueAt = nil, nil, nil
	r.rec.last = nil
	r.in.bodies, r.in.bodyTexts, r.in.bodyEvents, r.in.subTexts = nil, nil, nil, nil
	r.churnBatches = nil
	r.openLat, r.wireLat, r.late, r.wireRTT, r.wireSeqs = nil, nil, nil, nil, nil
	r.inflight, r.ctlInflight = nil, nil
}
