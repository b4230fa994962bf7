// Package par is the repository's deterministic parallel execution
// engine. Every dataset-shaped hot path — network evaluation,
// Algorithm-1 threshold search, dynamic-threshold calibration, and the
// experiment sweeps — funnels through the chunked primitives here.
//
// Determinism contract: the work range [0,n) is split into fixed-size
// chunks whose boundaries depend only on n and the chunk size, never
// on the worker count. Workers pull chunks from a shared queue, so
// scheduling varies, but (a) per-index results land in dedicated
// slots, (b) reductions run serially in chunk-index order, and (c)
// any randomness is drawn from a per-chunk RNG seeded by ChunkSeed.
// Results are therefore bit-identical for every worker count,
// including Workers == 1, which runs the chunks in order on the
// calling goroutine with no goroutines spawned — the exact serial
// path.
package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultChunkSize is the fixed work-chunk granularity. It balances
// scheduling overhead against load balance for per-image workloads
// (one chunk ≈ a dozen forward passes) and must not depend on the
// worker count, or determinism under seeded chunks would break.
const DefaultChunkSize = 16

// Validate rejects nonsensical worker counts. 0 is valid and means
// "use all available cores"; use it as the config default.
func Validate(workers int) error {
	if workers < 0 {
		return fmt.Errorf("par: workers %d is negative (0 means all cores, 1 the serial path)", workers)
	}
	return nil
}

// Resolve maps a Workers config value to a concrete worker count:
// 0 resolves to runtime.GOMAXPROCS(0), positive values pass through.
// Negative values panic; configs are expected to Validate first.
func Resolve(workers int) int {
	if workers < 0 {
		panic(fmt.Sprintf("par: workers %d is negative; configs must reject this (Validate)", workers))
	}
	if workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Chunk is one contiguous slice [Lo,Hi) of the work range, with its
// position in the fixed chunk sequence.
type Chunk struct {
	Index  int
	Lo, Hi int
}

// ChunkSeed derives a decorrelated RNG seed for one chunk from a base
// seed using a splitmix64-style mix, so neighbouring chunks do not
// get overlapping streams from math/rand's LCG-ish seeding.
func ChunkSeed(base int64, chunk int) int64 {
	z := uint64(base) + uint64(chunk+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// NumChunks returns the chunk count for n items at the given size, so
// callers can size per-chunk slots that line up one-to-one with
// Chunk.Index.
func NumChunks(n, chunkSize int) int {
	return numChunks(n, chunkSize)
}

// numChunks returns the chunk count for n items at the given size.
func numChunks(n, chunkSize int) int {
	if chunkSize <= 0 {
		panic(fmt.Sprintf("par: chunk size %d must be positive", chunkSize))
	}
	return (n + chunkSize - 1) / chunkSize
}

// chunkAt returns chunk i of the fixed sequence.
func chunkAt(i, n, chunkSize int) Chunk {
	lo := i * chunkSize
	hi := lo + chunkSize
	if hi > n {
		hi = n
	}
	return Chunk{Index: i, Lo: lo, Hi: hi}
}

// ForEachChunk invokes fn once per fixed-size chunk of [0,n), using up
// to `workers` goroutines (0 = all cores). fn must not touch state
// shared with other chunks except through dedicated per-index slots.
// With workers == 1 the chunks run in index order on the calling
// goroutine.
func ForEachChunk(workers, n, chunkSize int, fn func(Chunk)) {
	if n <= 0 {
		return
	}
	w := Resolve(workers)
	nc := numChunks(n, chunkSize)
	if w == 1 || nc == 1 {
		for i := 0; i < nc; i++ {
			fn(chunkAt(i, n, chunkSize))
		}
		return
	}
	if w > nc {
		w = nc
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= nc {
					return
				}
				fn(chunkAt(i, n, chunkSize))
			}
		}()
	}
	wg.Wait()
}

// ForEach invokes fn(i) for every i in [0,n) with the default chunk
// granularity. fn must only write state owned by index i.
func ForEach(workers, n int, fn func(i int)) {
	ForEachChunk(workers, n, DefaultChunkSize, func(c Chunk) {
		for i := c.Lo; i < c.Hi; i++ {
			fn(i)
		}
	})
}

// MapChunks evaluates fn on every chunk and returns the results in
// chunk-index order, regardless of completion order.
func MapChunks[T any](workers, n, chunkSize int, fn func(Chunk) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, numChunks(n, chunkSize))
	ForEachChunk(workers, n, chunkSize, func(c Chunk) {
		out[c.Index] = fn(c)
	})
	return out
}

// MapReduce evaluates mapper on every chunk and folds the per-chunk
// results with reduce strictly in chunk-index order, which keeps
// non-associative reductions (float sums) bit-identical for every
// worker count.
func MapReduce[T any](workers, n, chunkSize int, mapper func(Chunk) T, reduce func(acc, v T) T, init T) T {
	acc := init
	for _, v := range MapChunks(workers, n, chunkSize, mapper) {
		acc = reduce(acc, v)
	}
	return acc
}

// Count returns how many indices in [0,n) satisfy pred, evaluating
// the predicate in parallel. Integer addition is order-independent,
// so the result is exact for any worker count.
func Count(workers, n int, pred func(i int) bool) int {
	return MapReduce(workers, n, DefaultChunkSize,
		func(c Chunk) int {
			local := 0
			for i := c.Lo; i < c.Hi; i++ {
				if pred(i) {
					local++
				}
			}
			return local
		},
		func(a, b int) int { return a + b }, 0)
}
