package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// rootSpans builds one "publish" root per traced event, keyed by its
// sequence number: from its due time (open loop) or Publish call to its
// last delivery callback.
func (r *runner) rootSpans() []span {
	out := make([]span, 0, len(r.traceSeqs))
	for _, seq := range r.traceSeqs {
		ev := r.events[seq]
		start := ev.PubStart
		if d := r.dueAt[seq]; d > 0 {
			start = d
		}
		end := r.pubEnd[seq]
		if last := r.rec.last[seq].Load(); last > end {
			end = last
		}
		out = append(out, span{ID: rootID(seq), Name: "publish", Key: int64(seq), Start: start, End: end})
	}
	return out
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	// SelfMS is the total minus the parts of each span's interval its
	// child spans cover. For a publish root that is the time the event
	// spent in the engine outside every boundary the harness can see.
	SelfMS float64 `json:"self_ms"`
}

// selfTimes derives per-name total and self time from a span set.
func selfTimes(spans []span) []layerTime {
	children := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	agg := map[string]*layerTime{}
	for _, s := range spans {
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.Count++
		lt.TotalMS += float64(dur) / 1e6
		lt.SelfMS += float64(dur-covered(s.Start, s.End, children[s.ID])) / 1e6
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 || hi <= lo {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// writeTrace writes the run's spans and the per-name self times to path
// as one JSON document; spans are [id, parent, name, key, start_ns,
// end_ns] rows on the run clock.
func writeTrace(path string, head map[string]any, layers []layerTime, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	head["layers"] = layers
	hb, err := json.Marshal(head)
	if err != nil {
		f.Close()
		return err
	}
	// Splice the span rows into the header object by hand: a million
	// spans as generic JSON values would cost more memory than the run.
	fmt.Fprintf(w, "%s,\"spans\":[", hb[:len(hb)-1])
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n[%d,%d,%q,%d,%d,%d]", s.ID, s.Parent, s.Name, s.Key, s.Start, s.End)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
