package gatetrace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mpk"
	"repro/internal/telemetry"
)

// fakeReg is a minimal mpk.RightsRegister for bind-map tests.
type fakeReg struct{ r mpk.PKRU }

func (f *fakeReg) Rights() mpk.PKRU     { return f.r }
func (f *fakeReg) SetRights(v mpk.PKRU) { f.r = v }

// gate records a finished gate traversal into libu the way ffi does:
// observed into the gate-latency series, then handed to the context.
func gate(c *Context, hist *telemetry.Histogram, d time.Duration) {
	hist.Observe(uint64(d))
	c.Gate("gate:libu", "libu", time.Now(), d, hist)
}

func TestRetentionPolicy(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := New(Config{Capacity: 8, TailThreshold: 50 * time.Millisecond, Registry: reg})

	clean := tr.Start("alpha")
	gate(clean, nil, time.Microsecond)
	clean.Finish()

	faulted := tr.Start("beta")
	faulted.MarkFault("addr=0x2000 pkey=1")
	faulted.Finish()

	recovered := tr.Start("alpha")
	recovered.MarkRecovery("retry", "pku fault")
	recovered.Finish()

	// An eviction alone does not force retention: on an oversubscribed
	// key table nearly every request evicts.
	evicted := tr.Start("gamma")
	evicted.MarkEviction("vkey3", 5)
	evicted.Finish()

	got := tr.Retained()
	if len(got) != 2 {
		t.Fatalf("retained %d traces, want 2 (clean and evicted traces must be dropped)", len(got))
	}
	if got[0].Tenant != "beta" || !got[0].Faulted {
		t.Errorf("first retained = %+v, want beta/faulted", got[0])
	}
	if !got[1].Recovered {
		t.Errorf("flags lost: %+v", got[1])
	}
	st := tr.Stats()
	if st.Started != 4 || st.Finished != 4 || st.Retained != 2 || st.Dropped != 2 {
		t.Errorf("stats = %+v", st)
	}

	// The dropped traces still fed the request histogram.
	if _, count, ok := reg.HistogramQuantiles(RequestLatencyMetric, 0.5); !ok || count != 4 {
		t.Errorf("request histogram count = %d ok=%v, want 4", count, ok)
	}

	// With RetainAll the eviction is on the trace: flag and instant.
	all := New(Config{Capacity: 2, RetainAll: true})
	c := all.Start("gamma")
	c.MarkEviction("vkey3", 5)
	c.Finish()
	if got := all.Retained(); len(got) != 1 || !got[0].Evicted || got[0].Spans[0].Name != "evict:vkey3" {
		t.Errorf("eviction not recorded: %+v", got)
	}
}

// TestExemplarsNameRetainedTraces pins that exemplars only ever point at
// traces that can still be read: a retained trace publishes its ID on its
// slowest gate's bucket and its request bucket; a dropped one on neither.
func TestExemplarsNameRetainedTraces(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := New(Config{Capacity: 4, Registry: reg})
	hist := new(telemetry.Histogram)

	clean := tr.Start("alpha")
	gate(clean, hist, 3*time.Microsecond)
	clean.Finish()
	if ex := hist.Exemplars(); len(ex) != 0 {
		t.Fatalf("dropped trace published exemplars %+v", ex)
	}

	faulted := tr.Start("alpha")
	gate(faulted, hist, 100*time.Microsecond)
	gate(faulted, hist, 2*time.Microsecond)
	faulted.MarkFault("injected")
	faulted.Finish()
	ex := hist.Exemplars()
	if len(ex) != 1 || ex[0].TraceID != faulted.ID() || ex[0].Value != uint64(100*time.Microsecond) {
		t.Errorf("gate exemplars = %+v, want the slowest gate of %s", ex, faulted.ID())
	}
	if hist.Count() != 3 {
		t.Errorf("gate histogram count = %d, want 3", hist.Count())
	}
	var reqEx []telemetry.Exemplar
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == RequestLatencyMetric {
			for _, s := range m.Series {
				reqEx = append(reqEx, s.Exemplars...)
			}
		}
	}
	if len(reqEx) != 1 || reqEx[0].TraceID != faulted.ID() {
		t.Errorf("request exemplars = %+v, want one naming %s", reqEx, faulted.ID())
	}
}

func TestTailThresholdRetainsSlow(t *testing.T) {
	tr := New(Config{Capacity: 4, TailThreshold: time.Nanosecond})
	c := tr.Start("slow")
	time.Sleep(10 * time.Microsecond)
	c.Finish()
	if len(tr.Retained()) != 1 {
		t.Fatal("slow trace not retained by tail threshold")
	}
	// Threshold zero: clean traces drop no matter how slow.
	tr2 := New(Config{Capacity: 4})
	c2 := tr2.Start("slow")
	time.Sleep(10 * time.Microsecond)
	c2.Finish()
	if len(tr2.Retained()) != 0 {
		t.Fatal("clean trace retained with no tail threshold")
	}
}

func TestRetainAllAndRingWrap(t *testing.T) {
	tr := New(Config{Capacity: 3, RetainAll: true})
	for i := 0; i < 5; i++ {
		c := tr.Start(fmt.Sprintf("tenant%d", i))
		c.Finish()
	}
	got := tr.Retained()
	if len(got) != 3 {
		t.Fatalf("retained %d, want capacity 3", len(got))
	}
	if got[0].Tenant != "tenant2" || got[2].Tenant != "tenant4" {
		t.Errorf("ring order wrong: %s .. %s", got[0].Tenant, got[2].Tenant)
	}
}

// TestCorrelation is the acceptance-criterion shape in miniature: one
// request's gate enter, fault, recovery action and gate exit all under
// one trace ID with a tenant label.
func TestCorrelation(t *testing.T) {
	tr := New(Config{Capacity: 4})
	c := tr.Start("tenant-a")
	c.MarkFault("addr=0x2000 pkey=1")
	gate(c, nil, time.Microsecond)
	c.MarkRecovery("retry", "pku fault in libu")
	gate(c, nil, time.Microsecond)
	c.Finish()

	got := tr.Retained()
	if len(got) != 1 {
		t.Fatalf("retained %d", len(got))
	}
	trc := got[0]
	if trc.Tenant != "tenant-a" || trc.ID == "" {
		t.Fatalf("identity lost: %+v", trc)
	}
	var names []string
	for _, sp := range trc.Spans {
		names = append(names, sp.Name)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"fault", "gate:libu", "recover:retry"} {
		if !strings.Contains(joined, want) {
			t.Errorf("span %q missing from %v", want, names)
		}
	}
	if !trc.Faulted || !trc.Recovered {
		t.Errorf("flags = %+v", trc)
	}
	// Span offsets are non-negative and inside the request.
	for _, sp := range trc.Spans {
		if sp.Start < 0 || sp.Start > trc.Total {
			t.Errorf("span %q offset %v outside request total %v", sp.Name, sp.Start, trc.Total)
		}
	}
}

func TestEvictionAttributionViaBinds(t *testing.T) {
	// RetainAll: an eviction alone does not force retention.
	tr := New(Config{Capacity: 4, RetainAll: true})
	regA, regB := &fakeReg{}, &fakeReg{}
	ctxA := tr.Start("alpha")
	tr.Bind(regA, ctxA)
	defer tr.Unbind(regA)

	// Eviction triggered by regA lands on alpha's trace; one triggered by
	// an unbound register is silently dropped (no context to blame).
	tr.ObserveEviction(regA, "vkey7", 4)
	tr.ObserveEviction(regB, "vkey8", 5)
	ctxA.Finish()

	got := tr.Retained()
	if len(got) != 1 {
		t.Fatalf("retained %d", len(got))
	}
	if !got[0].Evicted || got[0].Spans[0].Name != "evict:vkey7" {
		t.Errorf("eviction not attributed: %+v", got[0].Spans)
	}
	// Unbinding stops attribution.
	tr.Unbind(regA)
	tr.ObserveEviction(regA, "vkey9", 6) // must not panic, no live context
}

func TestNilTracerAndContext(t *testing.T) {
	var tr *Tracer
	c := tr.Start("x")
	if c != nil {
		t.Fatal("nil tracer minted a context")
	}
	c.Gate("gate:d", "d", time.Now(), 0, nil)
	c.Span("s", "")()
	c.Instant("i", "", "")
	c.MarkFault("f")
	c.MarkRecovery("retry", "c")
	c.MarkEviction("v", 1)
	c.Finish()
	if c.ID() != "" || c.Tenant() != "" {
		t.Error("nil context leaked state")
	}
	tr.Bind(&fakeReg{}, nil)
	tr.ObserveEviction(&fakeReg{}, "v", 1)
	if tr.Retained() != nil || tr.Stats() != (Stats{}) {
		t.Error("nil tracer retained state")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil tracer export: %v", err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("nil tracer export not JSON: %v", err)
	}
}

func TestConcurrentRequests(t *testing.T) {
	tr := New(Config{Capacity: 64, Registry: telemetry.NewRegistry()})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := tr.Start(fmt.Sprintf("tenant%d", g))
				if i%10 == 0 {
					c.MarkFault("injected")
				}
				gate(c, nil, time.Microsecond)
				c.Finish()
			}
		}(g)
	}
	wg.Wait()
	st := tr.Stats()
	if st.Finished != 400 {
		t.Fatalf("finished = %d", st.Finished)
	}
	if st.Retained != 40 || st.Dropped != 360 {
		t.Errorf("retention split = %+v, want 40/360", st)
	}
	for _, trc := range tr.Retained() {
		if !trc.Faulted {
			t.Errorf("clean trace retained: %+v", trc)
		}
	}
}

// TestLateSpanAfterFinish pins that a gate exit racing past Finish cannot
// mutate the filed trace.
func TestLateSpanAfterFinish(t *testing.T) {
	tr := New(Config{Capacity: 4, RetainAll: true})
	c := tr.Start("x")
	c.Finish()
	gate(c, nil, time.Microsecond) // late exit: the trace is sealed
	got := tr.Retained()
	if len(got) != 1 {
		t.Fatalf("retained %d", len(got))
	}
	if len(got[0].Spans) != 0 {
		t.Errorf("late span mutated a filed trace: %+v", got[0].Spans)
	}
}

func TestChromeExportShape(t *testing.T) {
	tr := New(Config{Capacity: 4})
	c := tr.Start("tenant-a")
	c.MarkFault("addr=0x2000")
	gate(c, nil, time.Microsecond)
	c.Finish()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name  string            `json:"name"`
			Ph    string            `json:"ph"`
			Ts    float64           `json:"ts"`
			Dur   float64           `json:"dur"`
			Pid   int               `json:"pid"`
			Tid   int               `json:"tid"`
			Scope string            `json:"s"`
			Args  map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if out.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}
	var haveMeta, haveRequest, haveGate, haveFault bool
	for _, ev := range out.TraceEvents {
		if ev.Ts < 0 {
			t.Errorf("negative ts in %+v", ev)
		}
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			haveMeta = true
			if !strings.Contains(ev.Args["name"], "tenant=tenant-a") || !strings.Contains(ev.Args["name"], "faulted") {
				t.Errorf("thread name %q lacks tenant/flags", ev.Args["name"])
			}
		case ev.Ph == "X" && strings.HasPrefix(ev.Name, "request "):
			haveRequest = true
			if ev.Args["tenant"] != "tenant-a" || ev.Args["trace_id"] == "" {
				t.Errorf("request args = %v", ev.Args)
			}
		case ev.Ph == "X" && ev.Name == "gate:libu":
			haveGate = true
		case ev.Ph == "i" && ev.Name == "fault":
			haveFault = true
			if ev.Scope != "t" {
				t.Errorf("instant scope = %q", ev.Scope)
			}
		}
	}
	if !haveMeta || !haveRequest || !haveGate || !haveFault {
		t.Errorf("export missing rows: meta=%v request=%v gate=%v fault=%v\n%s",
			haveMeta, haveRequest, haveGate, haveFault, buf.String())
	}
}
