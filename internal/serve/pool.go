package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sei/internal/par"
)

// Pool shards the batching layer per design: each design name gets its
// own Batcher (bounded queue + coalescing loop), created on first use
// and torn down on unregister. Independent queues are what keep one
// hot design's saturation from starving every other design — a full
// queue on "hot" rejects only "hot"'s requests.
//
// The lookup path mirrors the registry: an atomically swapped
// copy-on-write map, so resolving a design's batcher on the request
// hot path takes no lock.
type Pool struct {
	cfg BatcherConfig

	byName atomic.Pointer[map[string]*Batcher]

	mu     sync.Mutex // serializes create/remove/close
	closed bool
}

// NewPool validates the shared per-design batcher config and returns
// an empty pool. Every batcher the pool creates uses cfg (including
// its Obs recorder, so counters aggregate across designs on one scrape
// surface).
func NewPool(cfg BatcherConfig) (*Pool, error) {
	if err := par.Validate(cfg.Workers); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	def := DefaultBatcherConfig()
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = def.MaxBatch
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = def.QueueCap
	}
	p := &Pool{cfg: cfg}
	m := map[string]*Batcher{}
	p.byName.Store(&m)
	return p, nil
}

// For returns name's batcher, creating it on first use. Fails with
// ErrDraining once Close has begun.
func (p *Pool) For(name string) (*Batcher, error) {
	if b, ok := (*p.byName.Load())[name]; ok {
		return b, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrDraining
	}
	if b, ok := (*p.byName.Load())[name]; ok {
		return b, nil
	}
	b, err := NewBatcher(p.cfg)
	if err != nil {
		return nil, err
	}
	p.store(func(m map[string]*Batcher) { m[name] = b })
	return b, nil
}

// store publishes a mutated copy of the batcher map. Callers hold p.mu.
func (p *Pool) store(mutate func(map[string]*Batcher)) {
	old := *p.byName.Load()
	next := make(map[string]*Batcher, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	mutate(next)
	p.byName.Store(&next)
}

// Remove tears down name's batcher: it disappears from the pool first
// (new requests for the name create a fresh batcher, or fail if the
// design was unregistered), then its queue drains and its loop exits.
func (p *Pool) Remove(name string) {
	p.mu.Lock()
	b, ok := (*p.byName.Load())[name]
	if ok {
		p.store(func(m map[string]*Batcher) { delete(m, name) })
	}
	p.mu.Unlock()
	if ok {
		b.Close()
	}
}

// Close stops accepting work and drains every batcher. Safe to call
// more than once.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	m := *p.byName.Load()
	p.mu.Unlock()
	for _, b := range m {
		b.Close()
	}
}

// Draining reports whether Close has begun.
func (p *Pool) Draining() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// QueueDepth sums pending predicts across every live batcher (for
// health reporting; inherently racy).
func (p *Pool) QueueDepth() int {
	total := 0
	for _, b := range *p.byName.Load() {
		total += b.QueueDepth()
	}
	return total
}

// Size reports how many designs currently have a live batcher.
func (p *Pool) Size() int { return len(*p.byName.Load()) }
