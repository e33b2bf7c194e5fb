package main

// metricDef names one printed metric. The lists below are the contract
// between the program and BENCHMARK.json: catalog_test.go checks that
// both name the same metrics with the same units.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd is what a user of the engine sees; every untraced run of every
// workload prints all of them. The tails of the same latencies are in
// perLayer: see tailMetrics.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"events_per_sec", "1/s", "higher"},
	{"deliver_p50_ms", "ms", "lower"},
	{"period_p50_ms", "ms", "lower"},
	{"wire_publish_p50_ms", "ms", "lower"},
	{"bytes_per_event", "B", "lower"},
	{"summary_bytes_per_period", "B", "lower"},
	{"heap_live_mb", "MB", "lower"},
}

// perLayer is measured from outside the engine in the traced run; every
// traced run of every workload prints all of them.
var perLayer = []metricDef{
	{"core.publish_us", "us", "lower"},
	{"core.flush_ms", "ms", "lower"},
	{"core.subscribe_us", "us", "lower"},
	{"core.unsubscribe_us", "us", "lower"},
	{"core.hops_per_event", "count", "lower"},
	{"core.deliver_sends_per_event", "count", "lower"},
	{"netsim.msgs_per_event.event", "count", "lower"},
	{"netsim.msgs_per_event.deliver", "count", "lower"},
	{"netsim.inflight_max", "count", "lower"},
	{"broker.match_us", "us", "lower"},
	{"broker.deliver_exact_us", "us", "lower"},
	{"broker.false_positive_ratio", "ratio", "lower"},
	{"broker.merge_ms", "ms", "lower"},
	{"summary.match_us", "us", "lower"},
	{"summary.collected_ids_per_event", "count", "lower"},
	{"summary.unique_ids_per_event", "count", "lower"},
	{"summary.encode_us", "us", "lower"},
	{"summary.merge_encoded_us", "us", "lower"},
	{"schema.decode_us", "us", "lower"},
	{"schema.parse_event_us", "us", "lower"},
	{"wire.ping_us", "us", "lower"},
	{"runtime.alloc_bytes_per_event", "B", "lower"},
	{"runtime.gc_pause_p99_ms", "ms", "lower"},
	{"process.cpu_us_per_event", "us", "lower"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"tail.deliver_p90_ms", "ms", "lower"},
	{"tail.deliver_p99_ms", "ms", "lower"},
	{"tail.period_p90_ms", "ms", "lower"},
	{"tail.wire_publish_p90_ms", "ms", "lower"},
	{"tail.wire_publish_p99_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.explained_cpu_pct", "%", "higher"},
	{"ops_failed_ratio", "ratio", "lower"},
}
