// Package serve is the batched inference service over the sei
// pipeline: a sharded design registry backed by gob snapshots on disk,
// per-design micro-batchers that coalesce concurrent predicts onto the
// deterministic parallel engine, and an HTTP front end with panic
// containment, backpressure, deadline-aware admission, live generation
// reload and graceful drain. Results are bit-identical to the offline
// evaluation path (nn.PredictBatchObs / EvaluateDesign) per generation,
// for any batch composition and worker count.
package serve

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"sei/internal/mnist"
	"sei/internal/nn"
	"sei/internal/seicore"
)

// Typed registry errors. Match with errors.Is.
var (
	// ErrUnknownDesign marks lookups of names that are neither
	// registered nor present as a snapshot file.
	ErrUnknownDesign = errors.New("serve: unknown design")
	// ErrUnknownGeneration marks a ?generation= pin that names a
	// generation no longer (or not yet) live for the design.
	ErrUnknownGeneration = errors.New("serve: unknown generation")
	// ErrNoCanary marks a canary-weight change on a design that does
	// not currently have two live generations.
	ErrNoCanary = errors.New("serve: no canary in progress")
	// ErrNoSnapshot marks a reload of a design that has no snapshot
	// file on disk (purely programmatic registration).
	ErrNoSnapshot = errors.New("serve: no snapshot on disk")
)

// DesignExt is the snapshot filename extension the registry scans for.
const DesignExt = ".design"

// Generation is one immutable published version of a design. Numbers
// are per-design, ascending from 1; a reload mints the next number.
type Generation struct {
	Number     int
	Classifier nn.Classifier
}

// Design is an immutable record of one served name: its live
// generations (ascending) and the canary split. The two newest
// generations form the routing pair — the stable one plus a canary —
// and any older entries are retained pin-only history (reachable via
// ?generation=, never routed unpinned; see Registry.SetRetain).
// Mutation happens by building a new Design and swapping the registry
// snapshot; readers never see a torn state.
type Design struct {
	Name string
	// Gens holds the live generations, oldest first. One entry in
	// steady state; two while a canary is in flight; up to the
	// registry's retain cap when older generations are kept for
	// pinned rollback/comparison.
	Gens []Generation
	// Canary is the fraction of unpinned traffic routed to the newest
	// generation when two are live. 1 after a full swap.
	Canary float64
	// ctr drives the deterministic weighted split. It is shared across
	// snapshot swaps of the same name so the split stays exact.
	ctr *atomic.Int64
}

// Generations returns the live generation numbers, oldest first.
func (d *Design) Generations() []int {
	nums := make([]int, len(d.Gens))
	for i, g := range d.Gens {
		nums[i] = g.Number
	}
	return nums
}

// route picks the generation serving one request. pin > 0 selects any
// exact live generation, including retained history. Unpinned traffic
// goes to the newest generation, except during a canary where a
// deterministic counter split sends exactly the Canary fraction to
// the newest and the rest to the previous newest (retained history
// older than the routing pair never receives unpinned traffic):
// request n routes new iff floor(n·w) > floor((n-1)·w), so every
// prefix of the request stream is within one request of the
// configured weight.
func (d *Design) route(pin int) (Generation, error) {
	if pin > 0 {
		for _, g := range d.Gens {
			if g.Number == pin {
				return g, nil
			}
		}
		return Generation{}, fmt.Errorf("%w: design %q has no live generation %d (live: %v)",
			ErrUnknownGeneration, d.Name, pin, d.Generations())
	}
	newest := d.Gens[len(d.Gens)-1]
	if len(d.Gens) == 1 || d.Canary >= 1 {
		return newest, nil
	}
	stable := d.Gens[len(d.Gens)-2]
	if d.Canary <= 0 {
		return stable, nil
	}
	n := float64(d.ctr.Add(1))
	if math.Floor(n*d.Canary) > math.Floor((n-1)*d.Canary) {
		return newest, nil
	}
	return stable, nil
}

// snapshot is the registry's immutable name → design map. Readers load
// it through one atomic pointer; writers copy, mutate and swap.
type snapshot map[string]*Design

// Registry resolves design names to classifiers. Programmatic entries
// come in through Register/Publish; everything else is loaded lazily
// from <dir>/<name>.design snapshots (seicore.LoadDesignFile) and
// cached, so repeated predicts against the same design pay the gob
// decode once.
//
// The read path is lock-free: resolved designs live in an atomically
// swapped copy-on-write snapshot, so a Get never waits on another
// design's cold load or on a writer. Cold loads run outside every lock
// under per-name singleflight — concurrent requests for the same
// uncached design share one decode, and a slow decode never blocks
// cache hits.
// DefaultRetain is a registry's generation cap per design: the
// routing pair (stable + canary) with no pin-only history — the
// original two-live behavior.
const DefaultRetain = 2

type Registry struct {
	dir  string
	seed int64

	// retain caps live generations per design (≥ 2): the two newest
	// are the routing pair, the remaining retain−2 oldest stay live
	// for pinned requests only. Mutated under mu, read under mu by
	// the publish path.
	retain int

	// loadFn decodes one snapshot file; swapped by tests to observe or
	// slow cold loads.
	loadFn func(path string, seed int64) (nn.Classifier, error)

	snap atomic.Pointer[snapshot]

	// mu serializes writers (Register, Unregister, Reload, cold-load
	// commits). Readers never take it.
	mu sync.Mutex

	// flightMu guards the singleflight table for cold loads.
	flightMu sync.Mutex
	flight   map[string]*flightCall
}

// flightCall is one in-progress cold load other callers wait on.
type flightCall struct {
	done chan struct{}
	d    *Design
	err  error
}

// NewRegistry returns a registry over dir (may be empty for a purely
// programmatic registry). seed re-anchors read-noise streams of noisy
// loaded designs, as in seicore.LoadDesign.
func NewRegistry(dir string, seed int64) *Registry {
	r := &Registry{
		dir:    dir,
		seed:   seed,
		retain: DefaultRetain,
		loadFn: loadDesignFile,
		flight: map[string]*flightCall{},
	}
	s := snapshot{}
	r.snap.Store(&s)
	return r
}

// loadDesignFile decodes one snapshot file and refuses a design built
// for another input shape: the predict path validates every image as
// [1, 28, 28], so such a design could only ever answer with panics.
func loadDesignFile(path string, seed int64) (nn.Classifier, error) {
	d, err := seicore.LoadDesignFile(path, seed)
	if err != nil {
		return nil, err
	}
	if want := []int{1, mnist.Side, mnist.Side}; !slices.Equal(d.Q.InShape, want) {
		return nil, fmt.Errorf("design input shape %v, want %v", d.Q.InShape, want)
	}
	return d, nil
}

// swap applies mutate to a copy of the current snapshot and publishes
// it. Callers hold r.mu.
func (r *Registry) swap(mutate func(snapshot)) {
	old := *r.snap.Load()
	next := make(snapshot, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	mutate(next)
	r.snap.Store(&next)
}

// nextDesign builds the successor Design record for name: c becomes
// generation prev.newest+1 (or 1), either as a full swap (sole
// unpinned target) or as a canary next to the previous newest. The
// previous generations that fit the registry's pin-only history slots
// (retain−2; none at the default two-live cap) stay live for pinned
// requests, oldest evicted first — a canary additionally keeps the
// previous newest as its routing partner, beyond those slots. The
// split counter is carried over so routing fractions stay exact
// across publishes. Callers hold r.mu.
func nextDesign(prev *Design, name string, c nn.Classifier, canary float64, retain int) *Design {
	d := &Design{Name: name, Canary: 1, ctr: new(atomic.Int64)}
	num := 1
	hist := retain - 2
	var kept []Generation
	if prev != nil {
		num = prev.Gens[len(prev.Gens)-1].Number + 1
		d.ctr = prev.ctr
		kept = prev.Gens
		if canary > 0 && canary < 1 {
			d.Canary = canary
			// Previous newest is the canary's routing partner; only
			// the generations before it compete for history slots.
			if n := len(kept) - 1; n > hist {
				kept = kept[n-hist:]
			}
		} else if len(kept) > hist {
			kept = kept[len(kept)-hist:]
		}
	}
	g := Generation{Number: num, Classifier: c}
	d.Gens = append(append(make([]Generation, 0, len(kept)+1), kept...), g)
	return d
}

// SetRetain sets the registry's per-design live-generation cap: the
// two newest generations route unpinned traffic (stable + canary) and
// the remaining n−2 stay live for pinned requests only. n below the
// two-live minimum is clamped to DefaultRetain. The cap applies on
// subsequent publishes; already-live generation sets shrink as new
// generations arrive.
func (r *Registry) SetRetain(n int) {
	if n < DefaultRetain {
		n = DefaultRetain
	}
	r.mu.Lock()
	r.retain = n
	r.mu.Unlock()
}

// Register publishes a named classifier as a new full-swap generation,
// shadowing any snapshot file of the same name. In-flight batches keep
// the classifier pointer they resolved, so they drain on the old
// generation.
func (r *Registry) Register(name string, c nn.Classifier) {
	r.Publish(name, c, 1)
}

// Publish is Register with a canary weight: weight in (0,1) keeps the
// previous generation live and routes that fraction of unpinned
// traffic to the new one; weight outside (0,1) (or a first publish) is
// a full swap.
func (r *Registry) Publish(name string, c nn.Classifier, weight float64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var gen int
	r.swap(func(s snapshot) {
		d := nextDesign(s[name], name, c, weight, r.retain)
		gen = d.Gens[len(d.Gens)-1].Number
		s[name] = d
	})
	return gen
}

// Unregister removes a design from the registry, reporting whether it
// was present. In-flight batches drain normally; later lookups fall
// back to the snapshot directory (a disk-backed design reappears as a
// fresh generation 1 on next use — pair with deleting the file to
// retire it fully).
func (r *Registry) Unregister(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := (*r.snap.Load())[name]
	if ok {
		r.swap(func(s snapshot) { delete(s, name) })
	}
	return ok
}

// SetCanary adjusts the split of a multi-generation design: weight >=
// 1 promotes the new generation (the previous stable drops into a
// pin-only history slot when the retain cap has one, and is retired
// otherwise — always retired at the default two-live cap), weight <=
// 0 rolls back to the old (retires the new), anything between updates
// the fraction routed to the new one.
func (r *Registry) SetCanary(name string, weight float64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := (*r.snap.Load())[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownDesign, name)
	}
	if len(d.Gens) < 2 {
		return fmt.Errorf("%w: design %q has one live generation", ErrNoCanary, name)
	}
	next := &Design{Name: name, Canary: weight, ctr: d.ctr, Gens: d.Gens}
	switch {
	case weight >= 1:
		kept := d.Gens[:len(d.Gens)-1]
		if hist := r.retain - 2; len(kept) > hist {
			kept = kept[len(kept)-hist:]
		}
		next.Gens = append(append(make([]Generation, 0, len(kept)+1), kept...), d.Gens[len(d.Gens)-1])
		next.Canary = 1
	case weight <= 0:
		next.Gens = d.Gens[:len(d.Gens)-1]
		next.Canary = 1
	}
	r.swap(func(s snapshot) { s[name] = next })
	return nil
}

// validName rejects anything that could escape the snapshot directory
// or hide files: path separators, traversal, leading dots.
func validName(name string) bool {
	if name == "" || strings.HasPrefix(name, ".") {
		return false
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// Get resolves a design name to its routed classifier, loading and
// caching its snapshot on first use. Unknown names (and names that do
// not survive path validation) fail with ErrUnknownDesign.
func (r *Registry) Get(name string) (nn.Classifier, error) {
	c, _, err := r.Resolve(name, 0)
	return c, err
}

// Resolve routes one request: pin > 0 selects that exact live
// generation, 0 follows the canary split. It returns the classifier
// and the generation number that served it. The hot path is one atomic
// load plus a map hit — no locks.
func (r *Registry) Resolve(name string, pin int) (nn.Classifier, int, error) {
	if d, ok := (*r.snap.Load())[name]; ok {
		g, err := d.route(pin)
		if err != nil {
			return nil, 0, err
		}
		return g.Classifier, g.Number, nil
	}
	d, err := r.coldLoad(name)
	if err != nil {
		return nil, 0, err
	}
	g, err := d.route(pin)
	if err != nil {
		return nil, 0, err
	}
	return g.Classifier, g.Number, nil
}

// Lookup returns the live Design record (nil when absent) without
// triggering a cold load.
func (r *Registry) Lookup(name string) *Design {
	return (*r.snap.Load())[name]
}

// path returns the snapshot file for name, or "" when the name is
// invalid or the registry has no directory.
func (r *Registry) path(name string) string {
	if !validName(name) || r.dir == "" {
		return ""
	}
	return filepath.Join(r.dir, name+DesignExt)
}

// coldLoad resolves an uncached name from disk under per-name
// singleflight. The gob decode runs outside every registry lock, so a
// slow load neither serializes unrelated lookups nor blocks writers.
func (r *Registry) coldLoad(name string) (*Design, error) {
	path := r.path(name)
	if path == "" {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDesign, name)
	}
	r.flightMu.Lock()
	// Re-check the snapshot under flightMu: a flight that just finished
	// committed before deleting its entry, so a miss here after the
	// deletion is guaranteed to see the committed design — without this
	// a caller descheduled between its snapshot miss and this point
	// would start a second decode.
	if d, ok := (*r.snap.Load())[name]; ok {
		r.flightMu.Unlock()
		return d, nil
	}
	if call, ok := r.flight[name]; ok {
		r.flightMu.Unlock()
		<-call.done
		return call.d, call.err
	}
	call := &flightCall{done: make(chan struct{})}
	r.flight[name] = call
	r.flightMu.Unlock()

	call.d, call.err = r.loadAndCommit(name, path)

	r.flightMu.Lock()
	delete(r.flight, name)
	r.flightMu.Unlock()
	close(call.done)
	return call.d, call.err
}

// loadAndCommit decodes one snapshot file and publishes it as the
// name's design — unless a concurrent Register won the race, in which
// case the registered design wins (matching Register's "shadows any
// snapshot file" contract).
func (r *Registry) loadAndCommit(name, path string) (*Design, error) {
	if _, err := os.Stat(path); err != nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDesign, name)
	}
	c, err := r.loadFn(path, r.seed)
	if err != nil {
		return nil, fmt.Errorf("serve: loading design %q: %w", name, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if d, ok := (*r.snap.Load())[name]; ok {
		return d, nil
	}
	var d *Design
	r.swap(func(s snapshot) {
		d = nextDesign(nil, name, c, 1, r.retain)
		s[name] = d
	})
	return d, nil
}

// Reload decodes the name's snapshot file again and publishes it as
// the next generation: weight in (0,1) starts a canary split, anything
// else is a full atomic swap (unpinned traffic moves wholesale; jobs
// already admitted drain on the generation they resolved). Returns the
// new generation number.
func (r *Registry) Reload(name string, weight float64) (int, error) {
	path := r.path(name)
	if path == "" {
		return 0, fmt.Errorf("%w: %q", ErrUnknownDesign, name)
	}
	if _, err := os.Stat(path); err != nil {
		if r.Lookup(name) != nil {
			return 0, fmt.Errorf("%w: design %q is registered programmatically", ErrNoSnapshot, name)
		}
		return 0, fmt.Errorf("%w: %q", ErrUnknownDesign, name)
	}
	c, err := r.loadFn(path, r.seed)
	if err != nil {
		return 0, fmt.Errorf("serve: reloading design %q: %w", name, err)
	}
	return r.Publish(name, c, weight), nil
}

// ReloadAll reloads every currently live design that has a snapshot
// file on disk as a full-swap generation (the SIGHUP path). It returns
// the reloaded names and the first error encountered (the sweep
// continues past per-design failures).
func (r *Registry) ReloadAll() ([]string, error) {
	var reloaded []string
	var firstErr error
	for name := range *r.snap.Load() {
		if p := r.path(name); p == "" {
			continue
		} else if _, err := os.Stat(p); err != nil {
			continue
		}
		if _, err := r.Reload(name, 1); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		reloaded = append(reloaded, name)
	}
	sort.Strings(reloaded)
	return reloaded, firstErr
}

// Names lists every resolvable design: live registered designs plus
// snapshot files in the directory, sorted and deduplicated.
func (r *Registry) Names() []string {
	seen := map[string]bool{}
	for name := range *r.snap.Load() {
		seen[name] = true
	}
	if r.dir != "" {
		if entries, err := os.ReadDir(r.dir); err == nil {
			for _, e := range entries {
				name := strings.TrimSuffix(e.Name(), DesignExt)
				if !e.IsDir() && strings.HasSuffix(e.Name(), DesignExt) && validName(name) {
					seen[name] = true
				}
			}
		}
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
