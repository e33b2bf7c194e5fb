package summary

import (
	"slices"
	"sync"

	"github.com/subsum/subsum/internal/metrics"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
)

// Matcher runs Algorithm 1 against a compiled Snapshot with zero
// steady-state allocations. It replaces Summary.MatchKeysWithCost's
// per-event counter maps with dense scratch arrays indexed by the
// snapshot's registry, and collects per-attribute id lists through the
// structures' append-style fast paths (interval.Set.AppendMatches,
// strmatch.Set.AppendMatches) instead of map sinks. The snapshot's rows
// already hold dense indexes, so the inner loop reads each collected
// id's counter slot straight from the row.
//
// A matcher over a Snapshot (ShardByKey, NewShardedMatcher — the
// broker's published read path) sees the summary as it was when the
// snapshot was compiled. A matcher built from a Summary (NewMatcher,
// NewMatcherPool) follows that summary instead: the first match after a
// mutation recompiles, a per-event check outside Algorithm 1's loops.
// Ids that rows reference but the registry does not — tombstoned ids, or
// those of hand-built or corrupt summaries — are dropped at compile time,
// and Summary.MatchKeysWithCost skips them too, so keys and costs agree.
//
// A Matcher must not be used concurrently with itself or with mutations
// of its summary, but any number of matchers may match concurrently
// against the same snapshot (see MatcherPool).
type Matcher struct {
	snap *Snapshot

	// src, when set, is the summary snap was compiled from, at src's
	// mutation count gen.
	src *Summary
	gen uint64

	// token is a monotonically increasing epoch: one tick per event plus
	// one per event attribute with matches. mark[i] records the token at
	// which dense id i was last counted, so "already counted for this
	// attribute" is mark[i] == attrToken and "first sighting this event"
	// is mark[i] < eventToken — no clearing between events. Both are
	// sized to the snapshot's registry when it is bound.
	token   uint64
	mark    []uint64
	count   []int32
	touched []int32  // dense ids seen this event, in first-seen order
	buf     []uint64 // per-attribute id-list collection scratch
	out     []uint64 // matched keys of the last call

	obs *MatcherObs // optional cost instrumentation; nil = one branch per event
}

// MatcherObs aggregates the Section 5.2.4 operation counts of every match
// into registry counters: Events counts matched events, Collected the
// per-attribute id-list entries examined, and Matched the ids that
// reached their c3 attribute count (the summary filter hits forwarded for
// exact re-matching). All fields are optional; nil counters are skipped.
type MatcherObs struct {
	Events    *metrics.Counter
	Collected *metrics.Counter
	Matched   *metrics.Counter
}

// SetObs attaches cost instrumentation to the matcher (nil detaches).
// When detached the steady-state overhead is a single nil check per
// event, preserving the matcher's zero-allocation hot path.
func (m *Matcher) SetObs(obs *MatcherObs) { m.obs = obs }

// NewMatcher compiles sm and returns a Matcher over the result that
// recompiles whenever sm has been mutated since.
func (sm *Summary) NewMatcher() *Matcher { return sm.trackingMatcher(sm.ShardByKey(1)[0], sm.gen) }

// trackingMatcher returns a matcher over snap, compiled from sm at
// mutation count gen, that follows sm's later mutations.
func (sm *Summary) trackingMatcher(snap *Snapshot, gen uint64) *Matcher {
	m := snap.newMatcher()
	m.src, m.gen = sm, gen
	return m
}

// newMatcher returns a Matcher over s.
func (s *Snapshot) newMatcher() *Matcher {
	m := &Matcher{}
	m.bind(s)
	return m
}

// bind points the matcher at s, growing the dense scratch to s's
// registry. Fresh slots are zero and every older mark is below the next
// event's token, so nothing needs clearing.
func (m *Matcher) bind(s *Snapshot) {
	m.snap = s
	if n := len(s.keys); len(m.mark) < n {
		m.mark = append(m.mark, make([]uint64, n-len(m.mark))...)
		m.count = append(m.count, make([]int32, n-len(m.count))...)
	}
}

// Match is Summary.Match run through the matcher's reusable scratch. The
// returned ids are freshly allocated and owned by the caller.
func (m *Matcher) Match(e *schema.Event) []subid.ID {
	keys := m.MatchKeys(e)
	out := make([]subid.ID, len(keys))
	for i, key := range keys {
		out[i] = m.snap.idFromKey(key)
	}
	return out
}

// MatchKeys returns the matched id keys in ascending order. The slice is
// scratch owned by the matcher, valid until the next call.
func (m *Matcher) MatchKeys(e *schema.Event) []uint64 {
	keys, _ := m.MatchKeysWithCost(e)
	return keys
}

// MatchKeysWithCost is MatchKeys with the Section 5.2.4 operation counts.
// Keys and cost are identical to Summary.MatchKeysWithCost's, without the
// per-event map allocations.
func (m *Matcher) MatchKeysWithCost(e *schema.Event) ([]uint64, MatchCost) {
	if m.src != nil && m.src.gen != m.gen {
		m.bind(m.src.ShardByKey(1)[0])
		m.gen = m.src.gen
	}
	sm := m.snap
	var cost MatchCost
	m.token++
	eventToken := m.token
	m.touched = m.touched[:0]
	for _, f := range e.Fields() {
		// Step 1: collect satisfied id lists for this attribute.
		cost.EventAttrs++
		m.buf = m.buf[:0]
		if f.Value.Arithmetic() {
			if s, ok := sm.aacs[f.Attr]; ok {
				m.buf = s.AppendMatches(m.buf, f.Value.Num)
			}
		} else if s, ok := sm.sacs[f.Attr]; ok {
			m.buf = s.AppendMatches(m.buf, f.Value.Str)
		}
		if len(m.buf) == 0 {
			continue
		}
		m.token++
		attrToken := m.token
		for _, idx := range m.buf {
			if m.mark[idx] == attrToken {
				continue // already counted for this attribute
			}
			if m.mark[idx] < eventToken {
				m.count[idx] = 0
				m.touched = append(m.touched, int32(idx))
			}
			m.mark[idx] = attrToken
			m.count[idx]++
			cost.CollectedIDs++
		}
	}
	// Step 2: keep ids whose counter equals their c3 attribute count.
	cost.UniqueIDs = len(m.touched)
	m.out = m.out[:0]
	for _, idx := range m.touched {
		if m.count[idx] == sm.targets[idx] {
			m.out = append(m.out, sm.keys[idx])
		}
	}
	slices.Sort(m.out)
	cost.Matched = len(m.out)
	if m.obs != nil {
		if m.obs.Events != nil {
			m.obs.Events.Inc()
		}
		if m.obs.Collected != nil {
			m.obs.Collected.Add(int64(cost.CollectedIDs))
		}
		if m.obs.Matched != nil {
			m.obs.Matched.Add(int64(cost.Matched))
		}
	}
	return m.out, cost
}

// MatcherPool pools Matchers bound to one summary for concurrent event
// sweeps: each worker Gets a matcher, matches a batch, and Puts it back,
// reusing scratch state across events and workers without locking.
type MatcherPool struct {
	pool sync.Pool
}

// NewMatcherPool compiles sm once and returns a pool whose matchers all
// share that snapshot until sm is mutated (each then recompiles, as
// NewMatcher's does).
func NewMatcherPool(sm *Summary) *MatcherPool {
	snap, gen := sm.ShardByKey(1)[0], sm.gen
	p := &MatcherPool{}
	p.pool.New = func() any { return sm.trackingMatcher(snap, gen) }
	return p
}

// Get returns a matcher bound to the pool's summary.
func (p *MatcherPool) Get() *Matcher { return p.pool.Get().(*Matcher) }

// Put returns m to the pool.
func (p *MatcherPool) Put(m *Matcher) { p.pool.Put(m) }
