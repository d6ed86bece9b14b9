package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/attack"
	"repro/internal/domains"
	"repro/internal/ffi"
	"repro/internal/gatetrace"
	"repro/internal/resilience"
	"repro/internal/supervise"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// resilienceTenants is the world shape of the containment experiment:
// eight tenants, one of which turns hostile in the measured scenario —
// the same shape `pkru-servo -domains=8 -hostile=...` drives end to end.
const resilienceTenants = 8

// ResilienceResult is one scenario of the containment experiment: the
// latency healthy tenants see for a full supervised gate round-trip,
// with and without a hostile tenant tripping its breaker next to them.
// The number the experiment pins down is the tax containment charges the
// innocent: HealthyP99 under "hostile" versus under "baseline".
type ResilienceResult struct {
	Name            string        // "baseline" | "hostile"
	Domains         int           // tenants in the world
	HealthyRequests int           // measured healthy round-trips
	HealthyP50      time.Duration // healthy per-request median
	HealthyP99      time.Duration // healthy per-request tail
	Shed            uint64        // hostile requests refused at admission
	HostileFaults   uint64        // hostile requests that faulted in a gate
	HostileEpochs   uint64        // quarantine epochs of the hostile pool
}

// resilienceWorld is the multi-tenant fixture both scenarios run in.
type resilienceWorld struct {
	m        *domains.Manager
	th       *ffi.Thread
	tracer   *gatetrace.Tracer
	sup      *supervise.Supervisor
	breakers *resilience.Group
	bufs     []vm.Addr
	secret   vm.Addr
	names    []string
}

func newResilienceWorld() (*resilienceWorld, error) {
	space := vm.NewSpace()
	m, err := domains.NewManager(space)
	if err != nil {
		return nil, err
	}
	ffiReg := ffi.NewRegistry()
	rt := ffi.NewRuntime(ffiReg, m.Allocator(), nil, ffi.GatesOn)
	tracer := gatetrace.New(gatetrace.Config{Capacity: 8})
	m.SetTracing(tracer)
	sup := supervise.New(supervise.Config{Policy: supervise.Quarantine},
		supervise.Deps{Alloc: m.Allocator()})
	// A long probe backoff keeps the tripped breaker open for the whole
	// scenario: the measurement wants the steady shed state, not probes.
	breakers := resilience.NewGroup(resilience.Config{ProbeAfter: time.Hour})

	setup := vm.NewThread(space, nil)
	secret, err := m.AllocTrusted(64)
	if err != nil {
		return nil, err
	}
	if err := setup.Store64(secret, 0xfeed); err != nil {
		return nil, err
	}

	w := &resilienceWorld{
		m: m, tracer: tracer, sup: sup, breakers: breakers,
		bufs: make([]vm.Addr, resilienceTenants), secret: secret,
		names: make([]string, resilienceTenants),
	}
	payloads := attack.TenantPayloads()
	for i := 0; i < resilienceTenants; i++ {
		w.names[i] = fmt.Sprintf("tenant%03d", i)
		d, err := m.AddDomain(w.names[i])
		if err != nil {
			return nil, err
		}
		buf, err := m.Alloc(d, 64)
		if err != nil {
			return nil, err
		}
		if err := setup.Store64(buf, uint64(i)); err != nil {
			return nil, err
		}
		w.bufs[i] = buf
		lib, err := ffiReg.Library(w.names[i], ffi.Untrusted)
		if err != nil {
			return nil, err
		}
		lib.Define("work", func(t *ffi.Thread, args []uint64) ([]uint64, error) {
			v, err := t.Load64(vm.Addr(args[0]))
			if err != nil {
				return nil, err
			}
			return []uint64{v}, nil
		})
		lib.Define("hostile", func(t *ffi.Thread, args []uint64) ([]uint64, error) {
			p := payloads[args[0]%uint64(len(payloads))]
			breached, err := p.Run(t, attack.PayloadTargets{
				Secret: vm.Addr(args[1]), Victim: vm.Addr(args[2])})
			if err != nil {
				return nil, err
			}
			if breached {
				return nil, fmt.Errorf("bench: payload %s breached containment", p.Name)
			}
			return []uint64{0}, nil
		})
		m.BindLibrary(rt, w.names[i], d)
	}
	th := rt.NewThread()
	th.VM.SetPKRUGuard(true) // the payload roster includes rogue WRPKRUs
	w.th = th
	return w, nil
}

// runResilienceScenario drives iters round-robin requests through the
// world; tenant index hostileIdx (negative for none) runs the attack
// payload roster behind its breaker instead of honest work.
func runResilienceScenario(name string, iters, hostileIdx int) (ResilienceResult, error) {
	w, err := newResilienceWorld()
	if err != nil {
		return ResilienceResult{}, err
	}
	res := ResilienceResult{Name: name, Domains: resilienceTenants}
	var healthy []time.Duration
	seq := make([]int, resilienceTenants)
	for c := 0; c < iters; c++ {
		i := c % resilienceTenants
		tenant := w.names[i]
		seq[i]++
		if _, aerr := w.breakers.Allow(tenant); aerr != nil {
			res.Shed++
			continue
		}
		tc := w.tracer.Start(tenant)
		w.th.SetTraceContext(tc)
		start := time.Now()
		var cerr error
		if i == hostileIdx {
			cerr = w.sup.Shield(w.th, tenant+".hostile", func() error {
				_, herr := w.th.Call(tenant, "hostile",
					uint64(seq[i]-1), uint64(w.secret), uint64(w.bufs[(i+1)%resilienceTenants]))
				return herr
			})
		} else {
			cerr = w.sup.Shield(w.th, tenant+".work", func() error {
				_, werr := w.th.Call(tenant, "work", uint64(w.bufs[i]))
				return werr
			})
		}
		lat := time.Since(start)
		w.th.SetTraceContext(nil)
		tc.Finish()
		if cerr == nil {
			w.breakers.RecordSuccess(tenant)
			if i != hostileIdx {
				healthy = append(healthy, lat)
			}
		} else {
			w.breakers.RecordFault(tenant)
			if i == hostileIdx {
				res.HostileFaults++
			} else {
				return res, fmt.Errorf("bench: healthy tenant %s faulted: %w", tenant, cerr)
			}
		}
	}
	sort.Slice(healthy, func(a, b int) bool { return healthy[a] < healthy[b] })
	res.HealthyRequests = len(healthy)
	res.HealthyP50 = telemetry.SampleQuantile(healthy, 0.50)
	res.HealthyP99 = telemetry.SampleQuantile(healthy, 0.99)
	if hostileIdx >= 0 {
		if e, ok := w.m.Allocator().DomainEpoch(w.names[hostileIdx]); ok {
			res.HostileEpochs = e
		}
	}
	return res, nil
}

// RunResilience measures the containment overhead: healthy-tenant gate
// latency in a clean eight-tenant world (baseline) versus the same world
// with one tenant mounting the attack roster until its breaker opens and
// its pool quarantines (hostile). iters is the total request count per
// scenario, spread round-robin across the tenants.
func RunResilience(iters int) ([]ResilienceResult, error) {
	base, err := runResilienceScenario("baseline", iters, -1)
	if err != nil {
		return nil, err
	}
	host, err := runResilienceScenario("hostile", iters, 3)
	if err != nil {
		return nil, err
	}
	return []ResilienceResult{base, host}, nil
}

// ResilienceOverhead returns hostile healthy-p99 / baseline healthy-p99 —
// the tail-latency tax containment charges the innocent tenants. The
// acceptance bar is 1.25x.
func ResilienceOverhead(rs []ResilienceResult) float64 {
	var base, host time.Duration
	for _, r := range rs {
		switch r.Name {
		case "baseline":
			base = r.HealthyP99
		case "hostile":
			host = r.HealthyP99
		}
	}
	if base <= 0 {
		return 0
	}
	return float64(host) / float64(base)
}

// FormatResilience renders the containment-overhead results.
func FormatResilience(rs []ResilienceResult) string {
	s := "Tenant containment: healthy-tenant gate latency beside a hostile neighbour\n"
	s += fmt.Sprintf("%-10s %8s %10s %10s %10s %8s %8s %8s\n",
		"scenario", "domains", "healthy", "p50", "p99", "shed", "faults", "epochs")
	for _, r := range rs {
		s += fmt.Sprintf("%-10s %8d %10d %10v %10v %8d %8d %8d\n",
			r.Name, r.Domains, r.HealthyRequests, r.HealthyP50, r.HealthyP99,
			r.Shed, r.HostileFaults, r.HostileEpochs)
	}
	s += fmt.Sprintf("healthy p99 overhead: %.2fx (bar: 1.25x)\n", ResilienceOverhead(rs))
	return s
}

// ResilienceReportSchema versions the resilience JSON report.
const ResilienceReportSchema = 1

type jsonResilience struct {
	Schema     int                    `json:"schema"`
	Experiment string                 `json:"experiment"`
	Iters      int                    `json:"iters"`
	P99Factor  float64                `json:"healthy_p99_overhead"`
	Results    []jsonResilienceResult `json:"results"`
}

type jsonResilienceResult struct {
	Name            string  `json:"name"`
	Domains         int     `json:"domains"`
	HealthyRequests int     `json:"healthy_requests"`
	HealthyP50Ns    float64 `json:"healthy_p50_ns"`
	HealthyP99Ns    float64 `json:"healthy_p99_ns"`
	Shed            uint64  `json:"shed"`
	HostileFaults   uint64  `json:"hostile_faults"`
	HostileEpochs   uint64  `json:"hostile_epochs"`
}

// WriteResilienceJSON emits the containment results as schema-versioned
// JSON (the BENCH_resilience.json seed).
func WriteResilienceJSON(w io.Writer, iters int, rs []ResilienceResult) error {
	out := jsonResilience{
		Schema:     ResilienceReportSchema,
		Experiment: "resilience",
		Iters:      iters,
		P99Factor:  ResilienceOverhead(rs),
	}
	for _, r := range rs {
		out.Results = append(out.Results, jsonResilienceResult{
			Name:            r.Name,
			Domains:         r.Domains,
			HealthyRequests: r.HealthyRequests,
			HealthyP50Ns:    float64(r.HealthyP50.Nanoseconds()),
			HealthyP99Ns:    float64(r.HealthyP99.Nanoseconds()),
			Shed:            r.Shed,
			HostileFaults:   r.HostileFaults,
			HostileEpochs:   r.HostileEpochs,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
