// Package slab hands out pieces of large backing arrays, so that a
// table of many small objects or lists costs a few allocations instead
// of one per entry. The simulated world (topology, netsim, bgp) builds
// its per-AS, per-node and per-link state from slabs: a 44,036-AS world
// is a handful of arrays rather than a million heap objects.
//
// A piece stays valid for the life of its backing array, which lives
// as long as any piece of it is referenced; pieces are never reused.
package slab

// minChunk is the smallest backing array a Slab allocates on its own.
const minChunk = 64

// Slab carves pieces from its current backing array and starts a new
// one when a piece does not fit: of the size Reserve asks for, or else
// twice the size of the last one Take started on its own. The zero
// value is an empty slab.
type Slab[T any] struct {
	free  []T // the current array; free[len(free):cap(free)] is unused
	grown int // the size of the last array Take started
}

// Reserve makes room for n more elements in the current backing array,
// so that the next pieces adding up to n take no allocation. Reserved
// room does not enlarge the arrays Take starts later.
func (s *Slab[T]) Reserve(n int) {
	if cap(s.free)-len(s.free) < n {
		s.free = make([]T, 0, n)
	}
}

// Take returns n zero elements with capacity n: appending to the piece
// beyond n copies it out rather than overwriting the next piece.
func (s *Slab[T]) Take(n int) []T {
	if n <= 0 {
		return nil
	}
	if cap(s.free)-len(s.free) < n {
		s.grown = max(n, 2*s.grown, minChunk)
		s.free = make([]T, 0, s.grown)
	}
	l := len(s.free)
	s.free = s.free[:l+n]
	return s.free[l : l+n : l+n]
}

// New returns a pointer to one zero element.
func (s *Slab[T]) New() *T { return &s.Take(1)[0] }
