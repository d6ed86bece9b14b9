package bench

import (
	"fmt"
	"testing"

	"repro/internal/domains"
	"repro/internal/ffi"
	"repro/internal/gatetrace"
	"repro/internal/profstore"
	"repro/internal/supervise"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vm"
)

// servoPath is pkru-servo -domains' request path on one thread: a
// request tracer context, a supervised domain-gated call into the
// tenant's library, and — when observed — every observer the serving
// plane attaches (telemetry registry, trace ring, crossing sampler,
// request tracer).
type servoPath struct {
	m      *domains.Manager
	rt     *ffi.Runtime
	th     *ffi.Thread
	tracer *gatetrace.Tracer
	sup    *supervise.Supervisor
	names  []string
	bufs   []vm.Addr
}

func newServoPath(tb testing.TB, tenants int, observed bool) *servoPath {
	tb.Helper()
	space := vm.NewSpace()
	m, err := domains.NewManager(space)
	if err != nil {
		tb.Fatal(err)
	}
	p := &servoPath{m: m, names: make([]string, tenants), bufs: make([]vm.Addr, tenants)}
	p.rt = ffi.NewRuntime(ffi.NewRegistry(), m.Allocator(), nil, ffi.GatesOn)
	deps := supervise.Deps{Alloc: m.Allocator()}
	if observed {
		reg := telemetry.NewRegistry()
		ring := trace.NewRing(256)
		m.SetTelemetry(reg)
		p.tracer = gatetrace.New(gatetrace.Config{Registry: reg, Capacity: 256})
		m.SetTracing(p.tracer)
		p.rt.SetTelemetry(reg)
		p.rt.SetTrace(ring)
		p.rt.SetCrossingSink(profstore.NewSampler(profstore.SamplerConfig{
			Interval: 8, Telemetry: reg, Ring: ring}))
		deps.Ring, deps.Telemetry = ring, reg
	}
	p.sup = supervise.New(supervise.Config{Policy: supervise.Quarantine}, deps)
	setup := vm.NewThread(space, nil)
	for i := range p.names {
		p.names[i] = fmt.Sprintf("tenant%03d", i)
		d, err := m.AddDomain(p.names[i])
		if err != nil {
			tb.Fatal(err)
		}
		if p.bufs[i], err = m.Alloc(d, 64); err != nil {
			tb.Fatal(err)
		}
		if err := setup.Store64(p.bufs[i], uint64(i)); err != nil {
			tb.Fatal(err)
		}
		lib, err := p.rt.Registry.Library(p.names[i], ffi.Untrusted)
		if err != nil {
			tb.Fatal(err)
		}
		lib.Define("work", func(t *ffi.Thread, args []uint64) ([]uint64, error) {
			_, err := t.Load64(vm.Addr(args[0]))
			return nil, err
		})
		m.BindLibrary(p.rt, p.names[i], d)
	}
	p.th = p.rt.NewThread()
	return p
}

// request serves one request for tenant i: Start, Bind, Shield(Call),
// Unbind, Finish — the calls pkru-servo makes, in its order.
func (p *servoPath) request(i int) error {
	name := p.names[i]
	tc := p.tracer.Start(name)
	p.th.SetTraceContext(tc)
	p.tracer.Bind(p.th.VM, tc)
	err := p.sup.Shield(p.th, name, func() error {
		_, err := p.th.Call(name, "work", uint64(p.bufs[i]))
		return err
	})
	p.tracer.Unbind(p.th.VM)
	p.th.SetTraceContext(nil)
	tc.Finish()
	return err
}

// BenchmarkGateObservers prices watching the gate: the same request
// path with no observer attached and with every observer pkru-servo
// attaches, over 8 tenants (every key holds a slot) and 64 tenants on
// 13 slots (most activations evict).
func BenchmarkGateObservers(b *testing.B) {
	for _, tenants := range []int{8, 64} {
		for _, observed := range []bool{false, true} {
			name := fmt.Sprintf("tenants=%d/bare", tenants)
			if observed {
				name = fmt.Sprintf("tenants=%d/observed", tenants)
			}
			b.Run(name, func(b *testing.B) {
				p := newServoPath(b, tenants, observed)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := p.request(i % tenants); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestObservedRequestAllocs pins what watching costs in allocations:
// one full request with every observer on may allocate at most one
// object more — its trace context — than the same request with none.
func TestObservedRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	allocs := func(observed bool) float64 {
		p := newServoPath(t, 8, observed)
		i := 0
		return testing.AllocsPerRun(200, func() {
			if err := p.request(i % 8); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	bare, observed := allocs(false), allocs(true)
	if observed > bare+1 {
		t.Errorf("observed request allocates %.1f objects, bare %.1f: want at most 1 more", observed, bare)
	}
}

// TestFaultFreeEvictionsRetainNothing: 64 tenants on 13 key slots evict
// on nearly every request, but a fault-free run has no trace worth
// reading, so none is retained.
func TestFaultFreeEvictionsRetainNothing(t *testing.T) {
	const tenants, requests = 64, 640
	p := newServoPath(t, tenants, true)
	for i := 0; i < requests; i++ {
		if err := p.request(i % tenants); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if ev := p.m.Table().Stats().Evictions; ev == 0 {
		t.Fatal("no evictions: the oversubscribed table was not exercised")
	}
	if st := p.tracer.Stats(); st.Finished != requests || st.Retained != 0 {
		t.Errorf("tracer stats = %+v, want %d finished and 0 retained", st, requests)
	}
}
