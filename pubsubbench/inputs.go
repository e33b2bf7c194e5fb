package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/topology"
	"github.com/subsum/subsum/internal/workload"
)

// spec fixes one workload. Rates were sized on a 2-CPU host (see
// README.md); they are constants, not measured at run time, so two
// commits are always offered the same load.
type spec struct {
	name string
	gen  workload.Config // Seed is overwritten from --seed
	// openRate is the open-loop offered rate in events/s.
	openRate float64
	// drainRound is the fixed event count of one closed-loop drain.
	drainRound int
	// churn, when set, applies a workload.NewChurn batch before every
	// propagation period of the open-loop phase.
	churn *workload.ChurnConfig
	// wire registers the subscriptions and runs set-up's propagation
	// period through a wire.Server subscriber connection, which receives
	// every delivery as a push, instead of calling core.Network directly.
	wire bool
	// deliverSpanEvery records delivery spans for one event in this many
	// in the traced run (fan-out workloads deliver ~100 times per event).
	deliverSpanEvery int
	// Shares of --seconds spent in the open loop, the closed-loop drains
	// and the closed loop of wire publish ops.
	openShare, drainShare, wireShare float64
}

// Fixed shape of every run.
const (
	// periodEvery is the cadence of the churn workload's control loop.
	periodEvery = 40e6 // ns
	// idlePeriods is how many back-to-back propagation periods the
	// workloads without churn run on an otherwise idle network.
	idlePeriods = 500
	// cycles is how many slices each measured phase is cut into.
	cycles = 10
	// numBodies is the number of distinct event bodies a workload cycles
	// through; each published event is a body plus a unique sequence
	// number.
	numBodies = 4096
	// sigma is subscriptions per broker (Σ) and hitRate the generator's
	// per-attribute hit rate; every workload uses Table 2's values.
	sigma       = 100
	hitRate     = 0.9
	setupReps   = 9
	auditBroker = 0 // broker that hosts the audit subscription
	warmup      = time.Second
)

// idleChurn is the churn of the quiet periods: one subscription per
// broker per period, each retracted the period after.
var idleChurn = workload.ChurnConfig{Rate: 24, MeanLifetime: 1, Dist: workload.LifetimeFixed}

func table2(subAttrs, eventAttrs int, subsumption float64) workload.Config {
	c := workload.DefaultConfig()
	c.AttrsPerSub = subAttrs
	c.AttrsPerEvent = eventAttrs
	c.Subsumption = subsumption
	return c
}

var specs = []spec{
	{
		name: "filter", gen: table2(5, 5, 0.5),
		openRate: 6000, drainRound: 4000, deliverSpanEvery: 1,
		openShare: 0.5, drainShare: 0.3, wireShare: 0.2,
	},
	// fanout and churn run by name but are not in BENCHMARK.json: on a
	// shared 2-vCPU host their latencies move with the host's speed by
	// more than the largest admissible bound (README.md has the figures).
	{
		name: "fanout", gen: table2(2, 10, 0.9),
		openRate: 1200, drainRound: 600, deliverSpanEvery: 16,
		openShare: 0.6, drainShare: 0.2, wireShare: 0.2,
	},
	{
		name: "churn", gen: table2(5, 5, 0.5),
		openRate: 3000, drainRound: 4000, deliverSpanEvery: 1,
		churn:     &workload.ChurnConfig{Rate: 48, MeanLifetime: 20, Dist: workload.LifetimeGeometric},
		openShare: 0.6, drainShare: 0.25, wireShare: 0.15,
	},
	{
		name: "wire", gen: table2(5, 5, 0.5),
		wire: true, drainRound: 4000, deliverSpanEvery: 1,
		drainShare: 0.3, wireShare: 0.7,
	},
}

func specByName(name string) (spec, error) {
	var names []string
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// inputs is everything a run publishes and subscribes, generated from the
// seed before any timing starts.
type inputs struct {
	schema  *schema.Schema
	gen     *workload.Generator
	seqAttr schema.AttrID
	nBroker int

	// subs are the static subscriptions registered at setup: sub i lives
	// at broker i % nBroker; the last one is the audit subscription.
	subs     []*schema.Subscription
	subAt    []topology.NodeID
	subTexts []string

	bodies     [][]schema.Field // event bodies (no sequence number)
	bodyTexts  []string         // ParseEvent text of each body
	bodyEvents []*schema.Event  // body plus seq=0: what the oracle matches
	ingress    []topology.NodeID
}

func newInputs(sp spec, seed int64, nBroker int) (*inputs, error) {
	cfg := sp.gen
	cfg.Seed = seed
	gen, err := workload.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	s := gen.Schema()
	seqAttr, err := s.Add("seq", schema.TypeFloat)
	if err != nil {
		return nil, err
	}
	in := &inputs{schema: s, gen: gen, seqAttr: seqAttr, nBroker: nBroker}
	for i := 0; i < sigma*nBroker; i++ {
		in.subs = append(in.subs, gen.Subscription())
		in.subAt = append(in.subAt, topology.NodeID(i%nBroker))
	}
	// The audit subscription matches every event exactly once: every event
	// carries a non-negative sequence number and nothing else constrains it.
	audit, err := schema.NewSubscription(s, schema.Constraint{Attr: seqAttr, Op: schema.OpGE, Value: schema.FloatValue(0)})
	if err != nil {
		return nil, err
	}
	in.subs = append(in.subs, audit)
	in.subAt = append(in.subAt, auditBroker)
	for _, sub := range in.subs {
		text := sub.Format(s)
		back, err := schema.ParseSubscription(s, text)
		if err != nil || back.Format(s) != text {
			return nil, fmt.Errorf("subscription %q does not survive the wire text form: %v", text, err)
		}
		in.subTexts = append(in.subTexts, text)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for b := 0; b < numBodies; b++ {
		ev := gen.Event(hitRate)
		fields := append([]schema.Field(nil), ev.Fields()...)
		in.bodies = append(in.bodies, fields)
		in.bodyTexts = append(in.bodyTexts, eventText(s, fields))
		full, err := schema.EventFromFields(s, append(append([]schema.Field(nil), fields...), schema.Field{Attr: seqAttr, Value: schema.FloatValue(0)}))
		if err != nil {
			return nil, err
		}
		in.bodyEvents = append(in.bodyEvents, full)
		in.ingress = append(in.ingress, topology.NodeID(rng.Intn(nBroker)))
	}
	return in, nil
}

// body maps a sequence number to its event body.
func (in *inputs) body(seq int) int { return seq % numBodies }

// ingressOf is the broker an event is published at.
func (in *inputs) ingressOf(seq int) topology.NodeID {
	return in.ingress[(seq/numBodies+seq)%numBodies]
}

// event builds the event with sequence number seq.
func (in *inputs) event(seq int) *schema.Event {
	b := in.bodies[in.body(seq)]
	fields := make([]schema.Field, len(b), len(b)+1)
	copy(fields, b)
	fields = append(fields, schema.Field{Attr: in.seqAttr, Value: schema.FloatValue(float64(seq))})
	ev, err := schema.EventFromFields(in.schema, fields)
	if err != nil {
		panic(fmt.Sprintf("generated event %d invalid: %v", seq, err)) // bodies were validated in newInputs
	}
	return ev
}

// text is the wire form of event seq: `attr=value` pairs that
// schema.ParseEvent accepts (Event.Format output is not accepted).
func (in *inputs) text(seq int) string {
	return in.bodyTexts[in.body(seq)] + " seq=" + strconv.Itoa(seq)
}

func eventText(s *schema.Schema, fields []schema.Field) string {
	var b strings.Builder
	for i, f := range fields {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(s.Name(f.Attr))
		b.WriteByte('=')
		if f.Value.Type == schema.TypeString {
			b.WriteString(strconv.Quote(f.Value.Str))
		} else {
			b.WriteString(strconv.FormatFloat(f.Value.Num, 'g', -1, 64))
		}
	}
	return b.String()
}

// seqFromText extracts the sequence number from a delivered event's
// Event.Format text ("{..., seq=17}").
func seqFromText(text string) (int, bool) {
	i := strings.LastIndex(text, "seq=")
	if i < 0 {
		return 0, false
	}
	rest := text[i+4:]
	j := strings.IndexAny(rest, ",}")
	if j < 0 {
		return 0, false
	}
	n, err := strconv.Atoi(rest[:j])
	return n, err == nil
}
