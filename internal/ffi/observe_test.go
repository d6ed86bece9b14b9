package ffi

import (
	"testing"
	"time"

	"repro/internal/gatetrace"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// latencySink records the latencies a CrossingSink is handed.
type latencySink struct{ lat []time.Duration }

func (s *latencySink) ObserveCrossing(_ string, _ []uint64, d time.Duration) {
	s.lat = append(s.lat, d)
}

func gateCount(t *testing.T, reg *telemetry.Registry) (crossings float64, observed uint64) {
	t.Helper()
	crossings, _ = reg.CounterValue("pkrusafe_gate_crossings_total")
	_, observed, _ = reg.HistogramQuantiles("pkrusafe_gate_latency_ns", 0.5)
	return crossings, observed
}

// TestGateMakesOneObservation pins that every observer of a gate sees the
// same single enter→restore duration: the latency histogram, the
// request's trace span and the crossing sink; and that the ring records
// the enter and the exit and nothing else.
func TestGateMakesOneObservation(t *testing.T) {
	rt, _, _ := domainWorld(t)
	rt.Registry.MustLibrary("tenantA", Untrusted).Define("f", func(*Thread, []uint64) ([]uint64, error) {
		return nil, nil
	})
	reg := telemetry.NewRegistry()
	rt.SetTelemetry(reg)
	ring := trace.NewRing(8)
	rt.SetTrace(ring)
	sink := &latencySink{}
	rt.SetCrossingSink(sink)
	tracer := gatetrace.New(gatetrace.Config{RetainAll: true})
	th := rt.NewThread()
	tc := tracer.Start("tenantA")
	th.SetTraceContext(tc)
	if _, err := th.Call("tenantA", "f"); err != nil {
		t.Fatal(err)
	}
	th.SetTraceContext(nil)
	tc.Finish()

	if len(sink.lat) != 1 {
		t.Fatalf("sink saw %d crossings, want 1", len(sink.lat))
	}
	d := sink.lat[0]
	hist := reg.HistogramVec("pkrusafe_gate_latency_ns", "", "ns", "lib").With("tenantA")
	if hist.Count() != 1 || hist.Sum() != uint64(d) {
		t.Errorf("histogram count/sum = %d/%d, want 1/%d", hist.Count(), hist.Sum(), d)
	}
	spans := tracer.Retained()[0].Spans
	if len(spans) != 1 || spans[0].Name != "gate:tenantA" || spans[0].Domain != "tenantA" || spans[0].Dur != d {
		t.Errorf("trace spans = %+v, want one gate:tenantA span of %v", spans, d)
	}
	events := ring.Snapshot()
	if len(events) != 2 || events[0].Kind != trace.GateEnter || events[1].Kind != trace.GateExit {
		t.Errorf("ring events = %v, want gate-enter, gate-exit", events)
	}
}

// TestRefusedDomainGateCountsNothing: a domain gate refused before it
// opens — here because its key was freed — moves neither the
// transitions count nor the crossings counter nor the latency
// histogram; the trace records the refusal instead.
func TestRefusedDomainGateCountsNothing(t *testing.T) {
	rt, table, ids := domainWorld(t)
	for _, lib := range []string{"tenantA", "tenantB"} {
		rt.Registry.MustLibrary(lib, Untrusted).Define("f", func(*Thread, []uint64) ([]uint64, error) {
			return nil, nil
		})
	}
	reg := telemetry.NewRegistry()
	rt.SetTelemetry(reg)
	tracer := gatetrace.New(gatetrace.Config{RetainAll: true})
	th := rt.NewThread()
	tc := tracer.Start("tenantA")
	th.SetTraceContext(tc)

	if _, err := th.Call("tenantB", "f"); err != nil {
		t.Fatal(err)
	}
	if crossings, observed := gateCount(t, reg); rt.Transitions() != 1 || crossings != 1 || observed != 1 {
		t.Fatalf("opened gate: transitions=%d crossings=%v observed=%d, want 1/1/1", rt.Transitions(), crossings, observed)
	}
	if err := table.Free(ids["tenantA"]); err != nil {
		t.Fatal(err)
	}
	if _, err := th.Call("tenantA", "f"); err == nil {
		t.Fatal("call into a freed domain succeeded")
	}
	if crossings, observed := gateCount(t, reg); rt.Transitions() != 1 || crossings != 1 || observed != 1 {
		t.Errorf("refused gate moved a count: transitions=%d crossings=%v observed=%d, want 1/1/1", rt.Transitions(), crossings, observed)
	}
	th.SetTraceContext(nil)
	tc.Finish()
	var names []string
	for _, sp := range tracer.Retained()[0].Spans {
		names = append(names, sp.Name)
	}
	if len(names) != 2 || names[0] != "gate:tenantB" || names[1] != "gate-refused" {
		t.Errorf("trace spans = %v, want [gate:tenantB gate-refused]", names)
	}
}
