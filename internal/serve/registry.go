package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"bitpacker"
)

// Serving-layer errors. HTTP handlers map these to status codes
// (ErrBusy → 429 with Retry-After, ErrUnknownTenant/ErrUnknownProfile →
// 404, ErrShutdown → 503).
var (
	ErrBusy           = errors.New("serve: request queue full")
	ErrShutdown       = errors.New("serve: server shutting down")
	ErrUnknownProfile = errors.New("serve: unknown profile")
	ErrUnknownTenant  = errors.New("serve: unknown tenant")
)

// ProfileConfig describes one parameter set the server hosts. All
// tenants registered under a profile share its Context (and thus its
// evaluation keys): the isolation the scheduler provides is slot-window
// cost amortization, not cryptographic separation — see DESIGN.md for
// the trust model.
type ProfileConfig struct {
	// Name identifies the profile in requests.
	Name string
	// Params builds the profile's Context. KeyCacheBytes defaults to
	// 32 MiB when unset so switching keys live compressed at rest and
	// the batch scheduler can pin its rotation working set per batch.
	Params bitpacker.Config
	// Window is the slot width handed to each tenant (power of two,
	// <= Slots()). Defaults to Slots() / 8.
	Window int
	// MaxBatch caps how many compatible requests one packed evaluation
	// coalesces. Defaults to Slots() / Window.
	MaxBatch int
	// FlushInterval bounds how long a lone batch waits for riders while
	// nothing else is queued; a queued request the open batch cannot take
	// flushes it at once. Defaults to 3ms.
	FlushInterval time.Duration
	// QueueDepth bounds the requests waiting for evaluation, the open
	// batch's included; a full queue rejects with ErrBusy (HTTP 429).
	// Defaults to 64.
	QueueDepth int
	// Packing enables slot packing. Off, MaxBatch is 1: every request is
	// a batch of one, evaluated alone.
	Packing bool
}

// tenant is one registered principal within a profile.
type tenant struct {
	name   string
	window int // slot range [window*Window, (window+1)*Window)
}

// profile is a running parameter set: the shared Context, the tenant
// table, and the batch scheduler.
type profile struct {
	cfg ProfileConfig
	ctx *bitpacker.Context

	mu         sync.Mutex
	tenants    map[string]*tenant
	nextWindow int

	sched *scheduler
}

// windows is the profile's tenant capacity per packed ciphertext.
func (p *profile) windows() int { return p.ctx.Slots() / p.cfg.Window }

// register returns the tenant record for name, creating it with the
// next round-robin slot window on first sight. Window assignment wraps
// at capacity: tenants sharing a window simply never ride in the same
// packed batch (the scheduler keeps windows distinct within a batch).
func (p *profile) register(name string) *tenant {
	p.mu.Lock()
	defer p.mu.Unlock()
	if t, ok := p.tenants[name]; ok {
		return t
	}
	t := &tenant{name: name, window: p.nextWindow % p.windows()}
	p.nextWindow++
	p.tenants[name] = t
	return t
}

// lookup returns the tenant record, or ErrUnknownTenant.
func (p *profile) lookup(name string) (*tenant, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if t, ok := p.tenants[name]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
}

// Registry owns the server's profiles. The map is built once by
// NewRegistry and only read afterwards, so it needs no lock.
type Registry struct {
	profiles map[string]*profile
}

// NewRegistry builds the profiles and starts their schedulers.
func NewRegistry(configs []ProfileConfig) (*Registry, error) {
	r := &Registry{profiles: map[string]*profile{}}
	for _, cfg := range configs {
		if cfg.Name == "" {
			return nil, fmt.Errorf("serve: profile with empty name")
		}
		if _, dup := r.profiles[cfg.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate profile %q", cfg.Name)
		}
		if cfg.Params.KeyCacheBytes == 0 {
			cfg.Params.KeyCacheBytes = 32 << 20
		}
		ctx, err := bitpacker.New(cfg.Params)
		if err != nil {
			return nil, fmt.Errorf("serve: profile %q: %w", cfg.Name, err)
		}
		slots := ctx.Slots()
		if cfg.Window <= 0 {
			cfg.Window = slots / 8
		}
		if cfg.Window > slots || slots%cfg.Window != 0 {
			return nil, fmt.Errorf("serve: profile %q: window %d does not divide %d slots",
				cfg.Name, cfg.Window, slots)
		}
		if !cfg.Packing {
			cfg.MaxBatch = 1
		}
		if cfg.MaxBatch <= 0 {
			cfg.MaxBatch = slots / cfg.Window
		}
		if cfg.FlushInterval <= 0 {
			cfg.FlushInterval = 3 * time.Millisecond
		}
		if cfg.QueueDepth <= 0 {
			cfg.QueueDepth = 64
		}
		p := &profile{cfg: cfg, ctx: ctx, tenants: map[string]*tenant{}}
		p.sched = newScheduler(p)
		r.profiles[cfg.Name] = p
	}
	return r, nil
}

// profile returns the named profile or ErrUnknownProfile.
func (r *Registry) profile(name string) (*profile, error) {
	if p, ok := r.profiles[name]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownProfile, name)
}

// Close drains and stops every profile's scheduler. Queued requests are
// still evaluated; new submissions fail with ErrShutdown.
func (r *Registry) Close() {
	for _, p := range r.profiles {
		p.sched.Close()
	}
}
