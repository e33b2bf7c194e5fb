package main

import "testing"

// A synthetic run, times in ns:
//
//	sub 0: live for the whole run
//	sub 1: Unsubscribe called at 500, returned at 510
//	sub 2: visible from 300 on; does not match event 1
//
//	event 0 published at 100 (done by 200)
//	event 1 published at 400 (done by 450)
//	event 2 published at 600 (done by 700)
//	event 3 published at 505 (done by 600), during sub 1's Unsubscribe
func syntheticOracle() *oracle {
	return &oracle{
		subs: []subLife{
			{Visible: 10, UnsubStart: never, UnsubEnd: never},
			{Visible: 10, UnsubStart: 500, UnsubEnd: 510},
			{Visible: 300, UnsubStart: never, UnsubEnd: never},
		},
		events: []eventLife{
			{Published: true, PubStart: 100, DoneBy: 200},
			{Published: true, PubStart: 400, DoneBy: 450},
			{Published: true, PubStart: 600, DoneBy: 700},
			{Published: true, PubStart: 505, DoneBy: 600},
		},
		matches:    func(seq, sub int) bool { return !(seq == 1 && sub == 2) },
		candidates: func(int) []int { return []int{0, 1, 2} },
	}
}

// cleanDeliveries is what a correct engine delivers: everything required
// and nothing forbidden.
func cleanDeliveries() []delivery {
	return []delivery{
		{0, 0}, {0, 1},
		{1, 0}, {1, 1},
		{2, 0}, {2, 2},
		{3, 0}, {3, 2},
	}
}

func TestOracleAcceptsCleanRun(t *testing.T) {
	v := syntheticOracle().check(cleanDeliveries())
	if v.Failed() != 0 || v.Required != 8 || v.Delivered != 8 {
		t.Fatalf("clean run: %+v", v)
	}
}

func TestOracleToleratesTransitions(t *testing.T) {
	// Sub 2 was not yet visible when event 0 was published, and sub 1 was
	// being unsubscribed while event 3 was in flight: either may or may
	// not receive the event.
	ds := append(cleanDeliveries(), delivery{0, 2}, delivery{3, 1})
	if v := syntheticOracle().check(ds); v.Failed() != 0 {
		t.Fatalf("transition deliveries flagged: %+v", v)
	}
}

func TestOracleFlagsExtraDelivery(t *testing.T) {
	ds := append(cleanDeliveries(), delivery{1, 2}) // sub 2 does not match event 1
	if v := syntheticOracle().check(ds); v.Extra != 1 || v.Failed() != 1 {
		t.Fatalf("extra delivery: %+v", v)
	}
	ds = append(cleanDeliveries(), delivery{0, 0}) // delivered twice
	if v := syntheticOracle().check(ds); v.Extra != 1 || v.Failed() != 1 {
		t.Fatalf("duplicate delivery: %+v", v)
	}
	ds = append(cleanDeliveries(), delivery{9, 0}) // never published
	if v := syntheticOracle().check(ds); v.Extra != 1 || v.Failed() != 1 {
		t.Fatalf("unpublished event: %+v", v)
	}
}

func TestOracleFlagsMissingDelivery(t *testing.T) {
	ds := cleanDeliveries()
	ds = append(ds[:5], ds[6:]...) // drop {2, 2}
	if v := syntheticOracle().check(ds); v.Missing != 1 || v.Failed() != 1 {
		t.Fatalf("missing delivery: %+v", v)
	}
}

func TestOracleFlagsDeliveryAfterUnsubscribe(t *testing.T) {
	ds := append(cleanDeliveries(), delivery{2, 1}) // event 2 published after sub 1 left
	if v := syntheticOracle().check(ds); v.AfterUnsub != 1 || v.Failed() != 1 {
		t.Fatalf("delivery after unsubscribe: %+v", v)
	}
}
