package profstore

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/profile"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Resolver maps an address carried across the boundary to the live
// allocation containing it. The core wires this to the forensics shadow
// store (obs.Recorder.Lookup); the indirection keeps profstore free of an
// obs dependency.
type Resolver func(addr uint64) (id profile.AllocID, size uint64, ok bool)

// SamplerConfig parameterizes NewSampler.
type SamplerConfig struct {
	// Resolve attributes argument addresses to allocations. Nil disables
	// attribution (the sampler still counts crossings).
	Resolve Resolver
	// Interval samples every Nth forward crossing; values <= 1 sample all.
	Interval int
	// Telemetry, when non-nil, registers the pkrusafe_profile_* families.
	Telemetry *telemetry.Registry
	// Ring, when non-nil, receives a Crossing event per attribution.
	Ring *trace.Ring
}

// SiteObs aggregates what the sampler observed for one allocation site.
type SiteObs struct {
	Crossings uint64 // sampled forward crossings carrying this site's data
	Bytes     uint64 // bytes of the objects observed crossing
}

// Sampler attributes forward (T→U) gate crossings to allocation sites: it
// implements ffi.CrossingSink, resolving each argument word the call
// carried into U through the provenance resolver. This is the live
// analogue of the paper's profiling build — instead of interposing on
// faults, it watches what trusted data actually flows through the gates,
// at a configurable sampling interval so the hot path stays cheap.
type Sampler struct {
	resolve  Resolver
	interval uint64 // fixed at construction, >= 1
	ring     *trace.Ring

	seen    atomic.Uint64 // forward crossings observed
	sampled atomic.Uint64 // crossings kept by the sampling interval

	mu    sync.Mutex
	sites map[profile.AllocID]*SiteObs

	// Registry handles; nil (no-op) without telemetry.
	mCrossings  *telemetry.CounterVec
	mBytes      *telemetry.CounterVec
	mLat        *telemetry.HistogramVec
	mSamples    *telemetry.Counter
	mUnresolved *telemetry.Counter
}

// NewSampler builds a crossing sampler. Attach it to a runtime with
// ffi.Runtime.SetCrossingSink (core.Options.Crossings does both).
func NewSampler(cfg SamplerConfig) *Sampler {
	s := &Sampler{
		resolve:  cfg.Resolve,
		interval: uint64(max(cfg.Interval, 1)),
		ring:     cfg.Ring,
		sites:    make(map[profile.AllocID]*SiteObs),
	}
	if reg := cfg.Telemetry; reg != nil {
		s.mCrossings = reg.CounterVec("pkrusafe_profile_crossings_total",
			"Sampled forward gate crossings attributed to an allocation site.", "site")
		s.mBytes = reg.CounterVec("pkrusafe_profile_crossing_bytes_total",
			"Bytes of trusted-heap objects observed crossing the boundary, by site.", "site")
		s.mLat = reg.HistogramVec("pkrusafe_profile_gate_latency_ns",
			"Gate enter-to-restore latency of sampled crossings, by attributed site.", "ns", "site")
		s.mSamples = reg.Counter("pkrusafe_profile_samples_total",
			"Forward gate crossings kept by the sampling interval.")
		s.mUnresolved = reg.Counter("pkrusafe_profile_unattributed_total",
			"Sampled crossings whose arguments resolved to no tracked allocation.")
	}
	return s
}

// ObserveCrossing implements ffi.CrossingSink: called once per forward
// gate traversal with the argument words the call carried into U.
func (s *Sampler) ObserveCrossing(lib string, args []uint64, latency time.Duration) {
	n := s.seen.Add(1)
	if n%s.interval != 0 {
		return
	}
	s.sampled.Add(1)
	s.mSamples.Inc()
	if s.resolve == nil {
		s.mUnresolved.Inc()
		return
	}
	// Attribute each object once per crossing even when several argument
	// words land inside it (pointer + length pairs are the common shape).
	var seenIDs [4]profile.AllocID
	nseen, resolved := 0, false
	for _, a := range args {
		id, size, ok := s.resolve(a)
		if !ok {
			continue
		}
		dup := false
		for i := 0; i < nseen; i++ {
			if seenIDs[i] == id {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if nseen < len(seenIDs) {
			seenIDs[nseen] = id
			nseen++
		}
		resolved = true
		s.note(id, size, a, latency)
	}
	if !resolved {
		s.mUnresolved.Inc()
	}
}

// note records one attribution.
func (s *Sampler) note(id profile.AllocID, size, addr uint64, latency time.Duration) {
	name := id.String()
	s.mCrossings.With(name).Inc()
	s.mBytes.With(name).Add(size)
	s.mLat.With(name).Observe(uint64(latency))
	if s.ring != nil {
		s.ring.Emit(trace.Event{Kind: trace.Crossing, A: addr, B: uint64(latency), Note: name})
	}
	s.mu.Lock()
	o := s.sites[id]
	if o == nil {
		o = &SiteObs{}
		s.sites[id] = o
	}
	o.Crossings++
	o.Bytes += size
	s.mu.Unlock()
}

// Interval returns the sampling interval (sample every Nth forward
// crossing; 1 samples all).
func (s *Sampler) Interval() int {
	if s == nil {
		return 1
	}
	return int(s.interval)
}

// Seen returns how many forward crossings passed the sampler.
func (s *Sampler) Seen() uint64 {
	if s == nil {
		return 0
	}
	return s.seen.Load()
}

// Sampled returns how many crossings the sampling interval kept.
func (s *Sampler) Sampled() uint64 {
	if s == nil {
		return 0
	}
	return s.sampled.Load()
}

// Sites returns the attributed allocation sites in deterministic order.
func (s *Sampler) Sites() []profile.AllocID {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	ids := make([]profile.AllocID, 0, len(s.sites))
	for id := range s.sites {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i].String() < ids[j].String() })
	return ids
}

// Observations returns a copy of the per-site aggregates.
func (s *Sampler) Observations() map[profile.AllocID]SiteObs {
	out := make(map[profile.AllocID]SiteObs)
	if s == nil {
		return out
	}
	s.mu.Lock()
	for id, o := range s.sites {
		out[id] = *o
	}
	s.mu.Unlock()
	return out
}

// Observed returns the aggregate for one site.
func (s *Sampler) Observed(id profile.AllocID) (SiteObs, bool) {
	if s == nil {
		return SiteObs{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.sites[id]
	if !ok {
		return SiteObs{}, false
	}
	return *o, true
}

// FeedStore marks every attributed site as seen in the store's active
// generation — the sampler's contribution to re-tighten bookkeeping.
func (s *Sampler) FeedStore(store *Store) {
	if s == nil || store == nil {
		return
	}
	store.MarkSeen(s.Sites()...)
}
