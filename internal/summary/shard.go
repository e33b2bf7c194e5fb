package summary

import (
	"runtime"
	"slices"
	"sync"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/strmatch"
	"github.com/subsum/subsum/internal/subid"
)

// Snapshot is a compiled, immutable copy of a summary — or of one
// key-range shard of it — in the form Algorithm 1 runs on. Its registry
// is renumbered in ascending key order and every AACS/SACS row id-list
// holds dense registry indexes instead of id keys, so a matcher reads an
// id's counter slot straight from the row with no hash lookup. Index
// order is key order, so every list stays strictly ascending. Build one
// with Summary.ShardByKey; Summary.NewMatcher and NewMatcherPool compile
// one internally.
type Snapshot struct {
	aacs    map[schema.AttrID]*interval.Set // row id-lists hold dense indexes
	sacs    map[schema.AttrID]*strmatch.Set
	keys    []uint64     // ascending: keys[i] is dense index i's id key
	masks   []subid.Mask // read-only, shared with the source summary
	targets []int32      // masks[i].Count(), the c3 match target
}

// NumSubscriptions returns the number of subscription ids compiled in.
func (s *Snapshot) NumSubscriptions() int { return len(s.keys) }

// idFromKey reconstructs the full id of a compiled key.
func (s *Snapshot) idFromKey(key uint64) subid.ID {
	broker, local := subid.KeyParts(key)
	i, _ := slices.BinarySearch(s.keys, key)
	return subid.ID{Broker: broker, Local: local, Attrs: s.masks[i]}
}

// ShardByKey compiles the summary into n snapshots partitioned by
// contiguous ascending id-key range, so one event can be matched across
// cores without shared scratch. Every registered id lands in exactly one
// shard; shard s covers a key range strictly below shard s+1's, which is
// what makes concatenating per-shard match results in shard order
// globally sorted — byte-identical to the unsharded matcher's output at
// any shard count (the determinism rule).
//
// The snapshots are copies: the receiver can keep mutating while
// matchers run against them. n is clamped to [1, number of ids] so no
// shard is empty (an empty summary still gets one shard).
func (sm *Summary) ShardByKey(n int) []*Snapshot {
	n = min(max(n, 1), max(1, len(sm.keys)))
	sorted := slices.Clone(sm.keys)
	slices.Sort(sorted)
	out := make([]*Snapshot, n)
	for s := range out {
		out[s] = sm.compile(sorted[s*len(sorted)/n : (s+1)*len(sorted)/n])
	}
	return out
}

// compileSlabChunk is the size, in ids, of the slabs a compiled
// snapshot's id lists are carved from.
const compileSlabChunk = 4096

// compile copies the summary restricted to reg, a contiguous range of its
// sorted registry keys, into a Snapshot. It is one pass: each row id-list
// is written into the copy directly as the positions of its ids in reg,
// carved from shared slabs rather than allocated per row. Ids outside reg
// — other shards' ids, tombstoned ids, ids rows reference but the
// registry never held — are dropped on the way, so no tombstone purge is
// needed first, and rows left without ids are dropped with them.
func (sm *Summary) compile(reg []uint64) *Snapshot {
	c := &Snapshot{
		aacs:    make(map[schema.AttrID]*interval.Set, len(sm.aacs)),
		sacs:    make(map[schema.AttrID]*strmatch.Set, len(sm.sacs)),
		keys:    reg,
		masks:   make([]subid.Mask, len(reg)),
		targets: make([]int32, len(reg)),
	}
	for i, key := range reg {
		j := sm.ids[key]
		c.masks[i], c.targets[i] = sm.masks[j], sm.targets[j]
	}
	if len(reg) == 0 {
		return c
	}
	var slab []uint64
	rank := func(ids []uint64) []uint64 {
		// Only ids inside reg's key range can be written.
		lo, _ := slices.BinarySearch(ids, reg[0])
		hi, found := slices.BinarySearch(ids, reg[len(reg)-1])
		if found {
			hi++
		}
		ids = ids[lo:hi]
		if cap(slab)-len(slab) < len(ids) {
			slab = make([]uint64, 0, max(compileSlabChunk, len(ids)))
		}
		start := len(slab)
		slab = appendRanks(slab, ids, reg)
		return slab[start:len(slab):len(slab)]
	}
	for a, s := range sm.aacs {
		c.aacs[a] = s.CloneMapped(rank)
	}
	for a, s := range sm.sacs {
		c.sacs[a] = s.CloneMapped(rank)
	}
	return c
}

// appendRanks appends to dst the position in reg of every key of ids
// that reg holds, skipping the others. Both lists ascend, so each search
// resumes where the previous one stopped and gallops forward: an id of a
// dense row costs a comparison or two, one of a sparse row a short
// binary search.
func appendRanks(dst, ids, reg []uint64) []uint64 {
	j := 0
	for _, k := range ids {
		lo, hi, step := j, j, 1
		for hi < len(reg) && reg[hi] < k {
			lo = hi + 1
			hi += step
			step <<= 1
		}
		hi = min(hi, len(reg))
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if reg[m] < k {
				lo = m + 1
			} else {
				hi = m
			}
		}
		if lo == len(reg) {
			break
		}
		if reg[lo] == k {
			dst = append(dst, uint64(lo))
			lo++
		}
		j = lo
	}
	return dst
}

// ShardedMatcher runs Algorithm 1 against a key-range partition of one
// summary (ShardByKey). Each shard has its own Matcher, so a batch of
// events can fan its shards out across cores with no shared scratch; a
// single event is matched serially shard by shard. Like Matcher, a
// ShardedMatcher must not be used concurrently with itself; use a
// ShardedMatcherPool to share one partition among goroutines.
type ShardedMatcher struct {
	shards   []*Snapshot
	matchers []*Matcher

	out []uint64 // single-event concatenation scratch

	// Batch scratch: per-shard flat key buffers with per-event offsets,
	// combined into the flat all/res views handed to the caller.
	perShard []shardBatch
	all      []uint64
	res      [][]uint64

	obs *MatcherObs // aggregated cost instrumentation; nil = one branch
}

// shardBatch is one shard's batch scratch: keys holds the shard's matches
// for every event back to back, offs[i] the start of event i's segment
// (len(events)+1 entries).
type shardBatch struct {
	keys []uint64
	offs []int32
	cost MatchCost
}

// NewShardedMatcher returns a matcher over the given key-range partition.
// The shards must be disjoint and ascending by key range (what ShardByKey
// produces); the matcher does not re-verify this.
func NewShardedMatcher(shards []*Snapshot) *ShardedMatcher {
	m := &ShardedMatcher{
		shards:   shards,
		matchers: make([]*Matcher, len(shards)),
		perShard: make([]shardBatch, len(shards)),
	}
	for i, s := range shards {
		m.matchers[i] = s.newMatcher()
	}
	return m
}

// NumShards returns the partition width.
func (m *ShardedMatcher) NumShards() int { return len(m.shards) }

// SetObs attaches cost instrumentation (nil detaches). Counts are
// recorded once per event at the sharded level — the per-shard matchers
// stay uninstrumented so an event is never counted once per shard.
func (m *ShardedMatcher) SetObs(obs *MatcherObs) { m.obs = obs }

// record aggregates one entry point's cost into the attached obs.
func (m *ShardedMatcher) record(events int, cost MatchCost) {
	if m.obs == nil {
		return
	}
	if m.obs.Events != nil {
		m.obs.Events.Add(int64(events))
	}
	if m.obs.Collected != nil {
		m.obs.Collected.Add(int64(cost.CollectedIDs))
	}
	if m.obs.Matched != nil {
		m.obs.Matched.Add(int64(cost.Matched))
	}
}

// MatchKeys returns the matched id keys in ascending order — identical to
// an unsharded Matcher over the union of the shards. The slice is scratch
// owned by the matcher, valid until the next call.
func (m *ShardedMatcher) MatchKeys(e *schema.Event) []uint64 {
	keys, _ := m.MatchKeysWithCost(e)
	return keys
}

// MatchKeysWithCost is MatchKeys with the Section 5.2.4 operation counts
// aggregated across shards (EventAttrs is counted once, not per shard).
func (m *ShardedMatcher) MatchKeysWithCost(e *schema.Event) ([]uint64, MatchCost) {
	var cost MatchCost
	m.out = m.out[:0]
	for i, sm := range m.matchers {
		keys, c := sm.MatchKeysWithCost(e)
		m.out = append(m.out, keys...)
		if i == 0 {
			cost.EventAttrs = c.EventAttrs
		}
		cost.CollectedIDs += c.CollectedIDs
		cost.UniqueIDs += c.UniqueIDs
	}
	cost.Matched = len(m.out)
	m.record(1, cost)
	return m.out, cost
}

// Match is MatchKeys returning full subscription ids (freshly allocated,
// caller-owned), with each key's c3 mask recovered from its shard.
func (m *ShardedMatcher) Match(e *schema.Event) []subid.ID {
	m.MatchKeys(e)
	out := make([]subid.ID, 0, len(m.out))
	// Re-walk per shard so each key resolves against the shard holding
	// its mask.
	for i, sm := range m.matchers {
		for _, key := range sm.out {
			out = append(out, m.shards[i].idFromKey(key))
		}
	}
	return out
}

// batchParallelMin is the batch size below which shard fan-out is not
// worth the goroutine round trip.
const batchParallelMin = 4

// MatchBatch matches every event against every shard and returns res,
// where res[i] is event i's matched keys in ascending order (identical to
// unsharded matching). With more than one shard, a large enough batch,
// and spare cores, the shards run in parallel — each shard's matcher
// walks the whole batch with its own scratch, so no two goroutines share
// state. The returned slices are scratch owned by the matcher, valid
// until the next call.
func (m *ShardedMatcher) MatchBatch(events []*schema.Event) [][]uint64 {
	res, _ := m.MatchBatchWithCost(events)
	return res
}

// MatchBatchWithCost is MatchBatch with the operation counts summed over
// the whole batch.
func (m *ShardedMatcher) MatchBatchWithCost(events []*schema.Event) ([][]uint64, MatchCost) {
	nShards := len(m.matchers)
	parallel := nShards > 1 && len(events) >= batchParallelMin && runtime.GOMAXPROCS(0) > 1
	if parallel {
		var wg sync.WaitGroup
		wg.Add(nShards)
		for s := 0; s < nShards; s++ {
			go func(s int) {
				defer wg.Done()
				m.matchShardBatch(s, events)
			}(s)
		}
		wg.Wait()
	} else {
		for s := 0; s < nShards; s++ {
			m.matchShardBatch(s, events)
		}
	}
	// Concatenate per event in shard order: shard key ranges ascend, so
	// the result is globally sorted without a merge step.
	var cost MatchCost
	m.all = m.all[:0]
	if cap(m.res) < len(events) {
		m.res = make([][]uint64, len(events))
	}
	m.res = m.res[:len(events)]
	for i := range events {
		start := len(m.all)
		for s := range m.perShard {
			sb := &m.perShard[s]
			m.all = append(m.all, sb.keys[sb.offs[i]:sb.offs[i+1]]...)
		}
		m.res[i] = m.all[start:len(m.all):len(m.all)]
	}
	for s := range m.perShard {
		c := m.perShard[s].cost
		if s == 0 {
			cost.EventAttrs = c.EventAttrs
		}
		cost.CollectedIDs += c.CollectedIDs
		cost.UniqueIDs += c.UniqueIDs
	}
	cost.Matched = len(m.all)
	m.record(len(events), cost)
	return m.res, cost
}

// matchShardBatch runs one shard's matcher over the whole batch into that
// shard's scratch. Safe to run concurrently across shards: it touches
// only m.perShard[s] and m.matchers[s].
func (m *ShardedMatcher) matchShardBatch(s int, events []*schema.Event) {
	sb := &m.perShard[s]
	sb.keys = sb.keys[:0]
	sb.offs = sb.offs[:0]
	sb.cost = MatchCost{}
	mt := m.matchers[s]
	for _, e := range events {
		sb.offs = append(sb.offs, int32(len(sb.keys)))
		keys, c := mt.MatchKeysWithCost(e)
		sb.keys = append(sb.keys, keys...)
		sb.cost.EventAttrs += c.EventAttrs
		sb.cost.CollectedIDs += c.CollectedIDs
		sb.cost.UniqueIDs += c.UniqueIDs
	}
	sb.offs = append(sb.offs, int32(len(sb.keys)))
}

// ShardedMatcherPool pools ShardedMatchers bound to one fixed partition,
// so concurrent readers of a published snapshot each lease private
// scratch without locking.
type ShardedMatcherPool struct {
	pool sync.Pool
	obs  *MatcherObs
}

// NewShardedMatcherPool returns a pool over the given partition.
func NewShardedMatcherPool(shards []*Snapshot) *ShardedMatcherPool {
	p := &ShardedMatcherPool{}
	p.pool.New = func() any {
		m := NewShardedMatcher(shards)
		m.SetObs(p.obs)
		return m
	}
	return p
}

// SetObs attaches cost instrumentation to matchers the pool creates.
// Call before the first Get; already-created matchers keep their setting.
func (p *ShardedMatcherPool) SetObs(obs *MatcherObs) { p.obs = obs }

// Get leases a matcher bound to the pool's partition.
func (p *ShardedMatcherPool) Get() *ShardedMatcher { return p.pool.Get().(*ShardedMatcher) }

// Put returns m to the pool.
func (p *ShardedMatcherPool) Put(m *ShardedMatcher) { p.pool.Put(m) }
