package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/bench"
	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/jsengine"
	"repro/internal/profile"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// browserSuite is one of the two browser workloads: a set of Dromaeo
// scripts, the argument one op passes to bench, and how many ops a round
// runs.
type browserSuite struct {
	benches  []workload.Benchmark
	arg      func(workload.Benchmark) float64
	perRound int // a multiple of len(benches)
}

// domSuite is the 8 transition-dense dom + jslib scripts; one op is
// bench(N) at the suite's N.
func domSuite() browserSuite {
	return browserSuite{
		benches:  dromaeo("dom", "jslib"),
		arg:      func(b workload.Benchmark) float64 { return b.N },
		perRound: 8 * 64,
	}
}

// computeSuite is the 11 engine-bound v8 / dromaeo / sunspider kernels;
// one op is bench(1).
func computeSuite() browserSuite {
	return browserSuite{
		benches:  dromaeo("v8", "dromaeo", "sunspider"),
		arg:      func(workload.Benchmark) float64 { return 1 },
		perRound: 11 * 10,
	}
}

func dromaeo(subs ...string) []workload.Benchmark {
	var out []workload.Benchmark
	for _, b := range workload.Dromaeo() {
		if slices.Contains(subs, b.Sub) {
			out = append(out, b)
		}
	}
	return out
}

// golden is the recorded result of bench(n) for one script: the first
// call of a fresh browser (the warm-up op) and every later call.
type golden struct {
	N     float64 `json:"n"`
	First float64 `json:"first"`
	Value float64 `json:"value"`
}

//go:embed golden.json
var goldenJSON []byte

func loadGolden() (map[string]golden, error) {
	var g map[string]golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// page is one script in its own built browser.
type page struct {
	bench workload.Benchmark
	br    *browser.Browser
	fn    uint64
	arg   float64
	first float64 // result of the warm-up op
	want  golden
}

// browserWorld is one round's set of browsers, one per script, plus
// how long the profile, build and load stages of its set-up took.
type browserWorld struct {
	pages                []*page
	profile, build, load time.Duration
}

// buildBrowserWorld profiles and builds one browser per script the way
// bench.measure does (no observers unless reg is set), loads its page,
// runs its setup script and one warm-up op.
func buildBrowserWorld(s browserSuite, cfg core.BuildConfig, reg *telemetry.Registry, gold map[string]golden, tr *spanBuf, id uint32) (*browserWorld, error) {
	w := &browserWorld{}
	root := tr.root(spSetup, id)
	defer tr.end(root)
	for _, b := range s.benches {
		arg := s.arg(b)
		want, ok := gold[b.Name]
		if !ok || want.N != arg {
			return nil, fmt.Errorf("no golden result for %s bench(%g)", b.Name, arg)
		}
		if b.Kind != workload.Invoke {
			return nil, fmt.Errorf("%s is not an invoke-kind script", b.Name)
		}
		t0 := time.Now()
		sp := tr.begin(spProfile, root, id)
		var prof *profile.Profile
		if cfg != core.Base {
			var err error
			if prof, err = bench.CollectBenchProfile(b, bench.Options{}); err != nil {
				return nil, fmt.Errorf("profile %s: %w", b.Name, err)
			}
		}
		tr.end(sp)
		t1 := time.Now()
		sp = tr.begin(spBuild, root, id)
		br, err := browser.New(cfg, prof, browser.Options{Telemetry: reg})
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", b.Name, err)
		}
		t2 := time.Now()
		sp = tr.begin(spLoad, root, id)
		html := b.HTML
		if html == "" {
			html = workload.HarnessPage
		}
		err = br.LoadHTML(html)
		if err == nil {
			_, err = br.ExecScript(b.Setup)
		}
		var fn uint64
		if err == nil {
			fn, err = br.LookupScriptFunc("bench")
		}
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", b.Name, err)
		}
		t3 := time.Now()
		sp = tr.begin(spWarmup, root, id)
		v, err := br.InvokeScriptFunc(fn, arg)
		if err == nil {
			err = br.Housekeeping()
		}
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", b.Name, err)
		}
		w.profile += t1.Sub(t0)
		w.build += t2.Sub(t1)
		w.load += t3.Sub(t2)
		w.pages = append(w.pages, &page{bench: b, br: br, fn: fn, arg: arg, first: v, want: want})
	}
	return w, nil
}

// counts are the program's own monotone counters, summed over a world.
type counts struct {
	crossings, steps, domOps, allocsMT, allocsMU uint64
}

func (w *browserWorld) counts() counts {
	var c counts
	for _, p := range w.pages {
		c.crossings += p.br.Prog.Transitions()
		c.steps += p.br.Engine.Steps()
		c.domOps += p.br.DOMOps()
		st := p.br.Prog.Allocator().Stats()
		c.allocsMT += st.Trusted.Allocs
		c.allocsMU += st.Untrusted.Allocs
	}
	return c
}

func (c counts) sub(o counts) counts {
	return counts{c.crossings - o.crossings, c.steps - o.steps, c.domOps - o.domOps,
		c.allocsMT - o.allocsMT, c.allocsMU - o.allocsMU}
}

func (c counts) add(o counts) counts {
	return counts{c.crossings + o.crossings, c.steps + o.steps, c.domOps + o.domOps,
		c.allocsMT + o.allocsMT, c.allocsMU + o.allocsMU}
}

// regReading is what a traced round reads from its telemetry registry.
type regReading struct {
	loads, stores                float64
	gateSum, gateCount           uint64
	heapAllocSum, heapAllocCount uint64
}

func readRegistry(reg *telemetry.Registry) regReading {
	var r regReading
	if reg == nil {
		return r
	}
	r.loads, _ = reg.CounterValue("pkrusafe_vm_loads_total")
	r.stores, _ = reg.CounterValue("pkrusafe_vm_stores_total")
	for _, m := range reg.Snapshot().Metrics {
		for _, s := range m.Series {
			switch m.Name {
			case "pkrusafe_gate_latency_ns":
				r.gateSum += s.Sum
				r.gateCount += s.Count
			case "pkrusafe_heap_alloc_latency_ns":
				r.heapAllocSum += s.Sum
				r.heapAllocCount += s.Count
			}
		}
	}
	return r
}

func (r regReading) sub(o regReading) regReading {
	return regReading{r.loads - o.loads, r.stores - o.stores, r.gateSum - o.gateSum, r.gateCount - o.gateCount,
		r.heapAllocSum - o.heapAllocSum, r.heapAllocCount - o.heapAllocCount}
}

func (r regReading) add(o regReading) regReading {
	return regReading{r.loads + o.loads, r.stores + o.stores, r.gateSum + o.gateSum, r.gateCount + o.gateCount,
		r.heapAllocSum + o.heapAllocSum, r.heapAllocCount + o.heapAllocCount}
}

// browserPhase is one measured phase: a number of rounds, each a fresh
// world running a fixed seeded list of ops. Fresh worlds keep a run's
// work fixed per op however long it runs: the engine has no collector,
// so one browser's resident pages (and op cost) grow with every op.
type browserPhase struct {
	ops                uint64
	fails              failures
	log                *opLog // op latencies and op time, set-ups excluded
	setups, rawSetups  []time.Duration
	profile, build, ld []time.Duration
	rounds             int
	counts             counts
	reg                regReading
	resident, muShare  []int64   // end-of-round totals (muShare in ppm)
	peaks              []float64 // each round's peak resident set, MiB
	peaksOK            bool      // every round's peak was reset at its start
	rt                 rtSnap
}

type browserRunner struct {
	cfg   config
	suite browserSuite
	gold  map[string]golden
	out   *outcome
	spans *spanBuf
}

// phase runs rounds of build: exactly n when n > 0, otherwise until d
// has elapsed and at least minP99Samples ops succeeded.
func (r *browserRunner) phase(build core.BuildConfig, traced bool, n int, d time.Duration) (*browserPhase, error) {
	p := &browserPhase{log: newOpLog(newHostClock()), peaksOK: true}
	start := time.Now()
	for round := 0; ; round++ {
		if n > 0 && round == n {
			break
		}
		if n == 0 && round > 0 && time.Since(start) >= d && p.log.lat.n >= minP99Samples {
			break
		}
		if err := r.round(p, build, traced, round); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (r *browserRunner) round(p *browserPhase, build core.BuildConfig, traced bool, round int) error {
	var reg *telemetry.Registry
	var tr *spanBuf
	if traced {
		reg, tr = telemetry.NewRegistry(), r.spans
	}
	// Start every round from a collected heap, so the previous world's
	// garbage is charged to neither this round's set-up nor its ops, and
	// the round's peak resident set is one world's.
	runtime.GC()
	p.peaksOK = resetPeakRSS() && p.peaksOK
	var w *browserWorld
	setup, raw, err := p.log.clock.timed(func() (err error) {
		w, err = buildBrowserWorld(r.suite, build, reg, r.gold, tr, uint32(round))
		return err
	})
	if err != nil {
		return err
	}
	for _, pg := range w.pages {
		if pg.first != pg.want.First {
			r.out.problem("%s (%v): warm-up bench(%g) = %v, golden %v", pg.bench.Name, build, pg.arg, pg.first, pg.want.First)
		}
	}
	p.setups = append(p.setups, setup)
	p.rawSetups = append(p.rawSetups, raw)
	p.profile = append(p.profile, w.profile)
	p.build = append(p.build, w.build)
	p.ld = append(p.ld, w.load)

	ops := roundOps(r.cfg.seed, round, len(w.pages), r.suite.perRound)
	c0, reg0, rt0 := w.counts(), readRegistry(reg), readRuntime()
	p.log.begin()
	for i, idx := range ops {
		op := uint32(round*r.suite.perRound + i)
		pg := w.pages[idx]
		root := tr.root(spOp, op)
		t := time.Now()
		sp := tr.begin(spInvoke, root, op)
		v, err := pg.br.InvokeScriptFunc(pg.fn, pg.arg)
		tr.end(sp)
		if err == nil {
			sp = tr.begin(spHousekeeping, root, op)
			err = pg.br.Housekeeping()
			tr.end(sp)
		}
		d := time.Since(t)
		tr.end(root)
		p.ops++
		switch {
		case errors.Is(err, jsengine.ErrStepLimit):
			p.fails.stepLimit++
		case err != nil:
			p.fails.scriptError++
			if p.fails.scriptError == 1 {
				r.out.notes = append(r.out.notes, fmt.Sprintf("first script error: %s: %v", pg.bench.Name, err))
			}
		case v != pg.want.Value:
			r.out.problem("%s (%v): bench(%g) = %v, golden %v", pg.bench.Name, build, pg.arg, v, pg.want.Value)
		}
		p.log.op(d, err == nil)
	}
	p.log.end()
	p.rt.add(rt0, readRuntime())
	p.counts = p.counts.add(w.counts().sub(c0))
	p.reg = p.reg.add(readRegistry(reg).sub(reg0))
	var resident int
	var share float64
	for _, pg := range w.pages {
		resident += pg.br.Prog.Space().ResidentPages()
		share += pg.br.Stats().UntrustedShare
	}
	p.resident = append(p.resident, int64(resident))
	p.muShare = append(p.muShare, int64(share/float64(len(w.pages))*1e6))
	p.peaks = append(p.peaks, peakRSSMB())
	p.rounds++
	return nil
}

// peakRSS is the median over rounds of each round's peak resident set.
// The process's own peak is the largest of them, and which round sets it
// depends on when the collector happens to run: in ten compute runs it
// was 14.8-15.4 MiB in seven and 17.4-17.9 MiB in three.
func (p *browserPhase) peakRSS() metric {
	if !p.peaksOK {
		return metric{name: "peak_rss_mb", value: peakRSSMB(), unit: "MB", note: "of the process: VmHWM could not be reset"}
	}
	peaks := slices.Clone(p.peaks)
	slices.Sort(peaks)
	return metric{name: "peak_rss_mb", value: peaks[(len(peaks)-1)/2], unit: "MB",
		note: fmt.Sprintf("median over %d rounds of each round's peak", len(p.peaks))}
}

// runBrowser runs the dom or compute workload. A --trace 0 run is one
// untraced phase. A --trace 1 run splits its seconds over three phases:
// an untraced one, the same rounds traced (spans plus a telemetry
// registry per world), and the same rounds in core.Base builds for the
// mpk/base ratio.
//
// The one client runs with one P, as the browser's script thread does.
// With a second P the collector's work ran on the otherwise idle CPU,
// unseen by throughput, and each stop-the-world waited on that second
// vCPU: on a shared 2-vCPU host the dom p99 then varied by 55% between
// runs (IQR over median) instead of 5-11%.
func runBrowser(cfg config, s browserSuite) (*outcome, error) {
	runtime.GOMAXPROCS(1)
	gold, err := loadGolden()
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	r := &browserRunner{cfg: cfg, suite: s, gold: gold, out: out}
	d := cfg.seconds
	if cfg.trace {
		d /= 3
	}
	un, err := r.phase(core.MPK, false, 0, d)
	if err != nil {
		return nil, err
	}
	out.attempted, out.fails = un.ops, un.fails
	out.notes = append(out.notes, fmt.Sprintf("%d rounds of %d ops over %d scripts, a fresh world per round",
		un.rounds, s.perRound, len(s.benches)))
	if !cfg.trace {
		out.metrics = append(endToEndMetrics(un.setups, un.rawSetups, un.log, un.ops, un.fails), un.peakRSS())
		return out, nil
	}

	r.spans = newSpanBuf(time.Now(), 1<<18)
	traced, err := r.phase(core.MPK, true, un.rounds, d)
	if err != nil {
		return nil, err
	}
	base, err := r.phase(core.Base, false, un.rounds, d)
	if err != nil {
		return nil, err
	}
	summary, err := writeSpans(spanPath(cfg), []*spanBuf{r.spans})
	if err != nil {
		return nil, err
	}
	out.notes = append(out.notes, summary, "n/a: "+tenantOnly+" (this workload never calls the serving plane)")
	overhead := ratio(traced.log.busy.Seconds()/float64(traced.ops), un.log.busy.Seconds()/float64(un.ops))
	out.metrics = append(browserLayers(un, traced, base, r.spans), runtimeLayers(un.rt, un.ops, overhead)...)
	return out, nil
}

// browserLayers derives the per-layer table of a traced browser run.
func browserLayers(un, traced, base *browserPhase, spans *spanBuf) []metric {
	ops := float64(un.ops)
	bufs := []*spanBuf{spans}
	ms := func(ds []time.Duration) float64 { return medianDuration(ds).Seconds() * 1e3 }
	p50us := func(name spanName) float64 { return quantile(sortedCopy(durations(bufs, name)), 0.5) / 1e3 }
	return []metric{
		{name: "browser.invoke_us", value: p50us(spInvoke), unit: "us", note: "p50 of InvokeScriptFunc, traced"},
		{name: "browser.housekeeping_us", value: p50us(spHousekeeping), unit: "us", note: "p50 of Housekeeping, traced"},
		{name: "browser.dom_ops_per_op", value: float64(un.counts.domOps) / ops, unit: "count"},
		{name: "core.profile_ms", value: ms(un.profile), unit: "ms", note: "per round, all scripts"},
		{name: "browser.build_ms", value: ms(un.build), unit: "ms", note: "per round, all scripts"},
		{name: "browser.load_ms", value: ms(un.ld), unit: "ms", note: "per round, all scripts"},
		{name: "jsengine.steps_per_op", value: float64(un.counts.steps) / ops, unit: "count"},
		{name: "jsengine.steps_per_us", value: ratio(float64(un.counts.steps), float64(un.log.busy.Microseconds())), unit: "1/us"},
		{name: "ffi.crossings_per_op", value: float64(un.counts.crossings) / ops, unit: "count"},
		{name: "ffi.gate_ns", value: ratio(float64(traced.reg.gateSum), float64(traced.reg.gateCount)), unit: "ns",
			note: "mean of pkrusafe_gate_latency_ns, traced"},
		{name: "ffi.mpk_over_base", value: ratio(un.log.busy.Seconds(), base.log.busy.Seconds()), unit: "ratio",
			note: fmt.Sprintf("same %d rounds in core.Base builds", base.rounds)},
		{name: "vm.loads_per_op", value: traced.reg.loads / float64(traced.ops), unit: "count"},
		{name: "vm.stores_per_op", value: traced.reg.stores / float64(traced.ops), unit: "count"},
		{name: "vm.resident_pages", value: quantile(sortedCopy(un.resident), 0.5), unit: "count",
			note: "all browsers of a world, at the end of a round"},
		{name: "heap.allocs_per_op_mt", value: float64(un.counts.allocsMT) / ops, unit: "count"},
		{name: "heap.allocs_per_op_mu", value: float64(un.counts.allocsMU) / ops, unit: "count"},
		{name: "heap.alloc_ns", value: ratio(float64(traced.reg.heapAllocSum), float64(traced.reg.heapAllocCount)), unit: "ns",
			note: "mean of pkrusafe_heap_alloc_latency_ns, traced"},
		{name: "core.mu_share", value: quantile(sortedCopy(un.muShare), 0.5) / 1e6, unit: "ratio"},
		{name: "vkey.miss_ratio", value: 0, unit: "ratio", note: "no vkey table on this workload"},
		{name: "vkey.evictions_per_op", value: 0, unit: "count", note: "no vkey table on this workload"},
	}
}
