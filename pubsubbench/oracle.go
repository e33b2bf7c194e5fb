package main

import (
	"math"
	"sort"
)

// never marks a subscription time that did not happen in the run.
const never = math.MaxInt64

// subLife is one subscription's life on the run clock (ns).
type subLife struct {
	// Visible is when the first propagation period that started after
	// Subscribe returned had completed: from then on every broker's
	// merged summary covers the subscription.
	Visible int64
	// UnsubStart and UnsubEnd bracket the Unsubscribe call (never when
	// the subscription lived to the end of the run).
	UnsubStart, UnsubEnd int64
}

// eventLife is one published event's life on the run clock (ns).
type eventLife struct {
	Published bool
	PubStart  int64 // Publish call (or wire publish send) start
	// DoneBy is a time by which the engine had provably finished the
	// event: the end of a bus quiescence (a Flush or a propagation period)
	// that began after Publish returned.
	DoneBy int64
}

// delivery is one delivery callback: event sequence number and harness
// subscription index.
type delivery struct {
	Seq int32
	Sub int32
}

// verdict counts what the oracle found.
type verdict struct {
	Required   int // deliveries the oracle demands
	Delivered  int // delivery callbacks seen
	Missing    int // required but absent
	Extra      int // delivered to a subscription the event does not match, or twice
	AfterUnsub int // delivered for an event published after Unsubscribe returned
}

// Failed is the number of failed operations among the deliveries.
func (v verdict) Failed() int { return v.Missing + v.Extra + v.AfterUnsub }

// oracle checks delivery records against the exact matching relation.
//
// A subscription must receive an event when it matches and was live and
// propagated for the whole life of the event: visible before the event
// was published, and not unsubscribed before the event was provably done.
// A subscription in transition during the event's life may receive it or
// not. A delivery to a non-matching subscription, a second delivery of
// the same event, or a delivery for an event published after Unsubscribe
// returned is a failure.
type oracle struct {
	subs   []subLife
	events []eventLife
	// matches is the exact relation (schema.Subscription.Matches).
	matches func(seq, sub int) bool
	// candidates lists, in ascending order, every subscription that
	// matches event seq; a superset is fine, matches filters it.
	candidates func(seq int) []int
}

func (o *oracle) check(ds []delivery) verdict {
	v := verdict{Delivered: len(ds)}
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].Seq != ds[j].Seq {
			return ds[i].Seq < ds[j].Seq
		}
		return ds[i].Sub < ds[j].Sub
	})
	for i, d := range ds {
		if i > 0 && ds[i-1] == d {
			v.Extra++
			continue
		}
		seq, sub := int(d.Seq), int(d.Sub)
		if seq < 0 || seq >= len(o.events) || sub < 0 || sub >= len(o.subs) || !o.events[seq].Published || !o.matches(seq, sub) {
			v.Extra++
			continue
		}
		if o.events[seq].PubStart >= o.subs[sub].UnsubEnd {
			v.AfterUnsub++
		}
	}
	j := 0
	for seq, ev := range o.events {
		for j < len(ds) && int(ds[j].Seq) < seq {
			j++
		}
		if !ev.Published {
			continue
		}
		k := j
		for _, sub := range o.candidates(seq) {
			s := o.subs[sub]
			if s.Visible > ev.PubStart || ev.DoneBy > s.UnsubStart || !o.matches(seq, sub) {
				continue
			}
			v.Required++
			for k < len(ds) && int(ds[k].Seq) == seq && int(ds[k].Sub) < sub {
				k++
			}
			if k >= len(ds) || int(ds[k].Seq) != seq || int(ds[k].Sub) != sub {
				v.Missing++
			}
		}
	}
	return v
}
