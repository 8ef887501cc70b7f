package slab

import "testing"

func TestTakeIsolatesPieces(t *testing.T) {
	var s Slab[int]
	s.Reserve(10)
	a := s.Take(3)
	b := s.Take(4)
	if len(a) != 3 || cap(a) != 3 || len(b) != 4 || cap(b) != 4 {
		t.Fatalf("pieces len/cap %d/%d and %d/%d, want 3/3 and 4/4", len(a), cap(a), len(b), cap(b))
	}
	for i := range b {
		b[i] = 7
	}
	a = append(a, 1) // must copy out, not run into b
	if b[0] != 7 {
		t.Fatalf("appending to one piece overwrote the next: %v", b)
	}
	if s.Take(0) != nil {
		t.Fatal("Take(0) returned a piece")
	}
}

func TestReserveAllocatesOnce(t *testing.T) {
	var s Slab[int]
	allocs := testing.AllocsPerRun(1, func() {
		s = Slab[int]{}
		s.Reserve(1000)
		for i := 0; i < 100; i++ {
			s.Take(10)
		}
	})
	if allocs != 1 {
		t.Fatalf("1,000 reserved elements taken in 100 pieces: %v allocations, want 1", allocs)
	}
}

func TestTakeGrowsGeometrically(t *testing.T) {
	var s Slab[int]
	allocs := testing.AllocsPerRun(1, func() {
		s = Slab[int]{}
		for i := 0; i < 10_000; i++ {
			*s.New() = i
		}
	})
	if allocs > 10 {
		t.Fatalf("10,000 single elements: %v allocations, want at most 10", allocs)
	}
}

func TestReserveDoesNotInflateGrowth(t *testing.T) {
	var s Slab[int]
	s.Reserve(1_000_000)
	s.Take(1_000_000)
	if p := s.Take(1); cap(s.free) != minChunk {
		t.Fatalf("first piece after a reserved array used up: new array of %d, want %d (piece %v)", cap(s.free), minChunk, p)
	}
}
