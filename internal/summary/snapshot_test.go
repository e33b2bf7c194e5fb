package summary

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
)

// churnedSummary builds a summary in every state snapshot compilation
// must handle: rows merged through MergeEncoded, a local id reused after
// its removal, pending retractions, tombstoned-but-unpurged keys, and
// rows that reference an id the registry does not hold.
func churnedSummary(t testing.TB, rng *rand.Rand, s *schema.Schema, mode interval.Mode) *Summary {
	t.Helper()
	insert := func(sm *Summary, broker, local int) {
		t.Helper()
		id := subid.ID{Broker: subid.BrokerID(broker), Local: subid.LocalID(local)}
		if err := sm.Insert(id, randomSubscription(rng, s)); err != nil {
			t.Fatal(err)
		}
	}
	key := func(broker, local int) uint64 {
		return subid.ID{Broker: subid.BrokerID(broker), Local: subid.LocalID(local)}.Key()
	}
	sm := New(s, mode)
	for i := 0; i < 120; i++ {
		insert(sm, 1, i)
	}
	other := New(s, mode)
	for i := 0; i < 60; i++ {
		insert(other, 2, i)
	}
	if err := sm.MergeEncoded(other.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	// Withdraw local 0 and subscribe it again with a new subscription.
	sm.RemoveKey(key(1, 0))
	insert(sm, 1, 0)
	// Retractions and plain removals, left unpurged.
	for i := 1; i <= 10; i++ {
		sm.AddRetraction(key(1, i))
	}
	for i := 11; i <= 40; i += 2 {
		sm.RemoveKey(key(1, i))
	}
	// Corrupt rows: id 2:0 leaves the registry without a tombstone.
	sm.RemoveKey(key(2, 0))
	delete(sm.dead, key(2, 0))
	if len(sm.dead) == 0 || sm.NumRetractions() == 0 {
		t.Fatal("fixture lost its tombstones or retractions")
	}
	return sm
}

// TestSnapshotMatchesOracle is the compiled-snapshot differential: at
// every shard count, matching a compiled snapshot must give keys and
// MatchCost identical to the map-based Summary.MatchKeysWithCost, and
// compiling must leave the source's tombstones in place.
func TestSnapshotMatchesOracle(t *testing.T) {
	s := stockSchema(t)
	rng := rand.New(rand.NewSource(51))
	matched := 0
	for _, mode := range []interval.Mode{interval.Lossy, interval.Exact} {
		sm := churnedSummary(t, rng, s, mode)
		dead := len(sm.dead)
		events := make([]*schema.Event, 300)
		for i := range events {
			events[i] = randomEvent(rng, s)
		}
		for _, n := range []int{1, 2, 4, 8} {
			m := NewShardedMatcher(sm.ShardByKey(n))
			for _, ev := range events {
				wantKeys, wantCost := sm.MatchKeysWithCost(ev)
				gotKeys, gotCost := m.MatchKeysWithCost(ev)
				if !slices.Equal(gotKeys, wantKeys) {
					t.Fatalf("mode %v shards %d: keys diverge on %s\noracle   %v\nsnapshot %v",
						mode, n, ev.Format(s), wantKeys, gotKeys)
				}
				if gotCost != wantCost {
					t.Fatalf("mode %v shards %d: cost diverges on %s\noracle   %+v\nsnapshot %+v",
						mode, n, ev.Format(s), wantCost, gotCost)
				}
				matched += len(wantKeys)
			}
		}
		if len(sm.dead) != dead {
			t.Fatalf("mode %v: compiling changed the source's tombstones (%d → %d)", mode, dead, len(sm.dead))
		}
	}
	if matched == 0 {
		t.Fatal("no event matched; the differential would be vacuous")
	}
}

// TestMatcherSnapshotSemantics pins what a matcher sees after its summary
// changes: one over a compiled snapshot keeps the summary as compiled,
// while Summary.NewMatcher and MatcherPool matchers follow the summary.
func TestMatcherSnapshotSemantics(t *testing.T) {
	s := stockSchema(t)
	sm := New(s, interval.Lossy)
	first := subid.ID{Broker: 1, Local: 1}
	second := subid.ID{Broker: 1, Local: 2}
	if err := sm.Insert(first, mustSub(t, s, `price > 5`)); err != nil {
		t.Fatal(err)
	}
	frozen := NewShardedMatcher(sm.ShardByKey(1))
	live := sm.NewMatcher()
	pool := NewMatcherPool(sm)
	ev := mustEvent(t, s, `price=10`)
	before := []uint64{first.Key()}
	if got := live.MatchKeys(ev); !slices.Equal(got, before) {
		t.Fatalf("before Insert: got %v want %v", got, before)
	}
	if err := sm.Insert(second, mustSub(t, s, `price < 20`)); err != nil {
		t.Fatal(err)
	}
	if got := frozen.MatchKeys(ev); !slices.Equal(got, before) {
		t.Fatalf("snapshot matcher saw the Insert: got %v want %v", got, before)
	}
	after := []uint64{first.Key(), second.Key()}
	if got := live.MatchKeys(ev); !slices.Equal(got, after) {
		t.Fatalf("NewMatcher missed the Insert: got %v want %v", got, after)
	}
	// Pooled matchers recompile concurrently; compiling only reads the
	// summary, so this is race-free while the summary is not mutated.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := pool.Get()
			defer pool.Put(m)
			if got := m.MatchKeys(ev); !slices.Equal(got, after) {
				t.Errorf("pooled matcher missed the Insert: got %v want %v", got, after)
			}
		}()
	}
	wg.Wait()
}
