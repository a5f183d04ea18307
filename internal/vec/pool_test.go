package vec

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"
)

// shelved counts the arrays on n's shelf.
func shelved(n int) int {
	shelvesMu.Lock()
	defer shelvesMu.Unlock()
	if s := shelves[n]; s != nil {
		return len(s.arrays)
	}
	return 0
}

// TestTakeIsMake: Take returns what make returns — length and capacity n,
// every element zero — whether the array is new or one Put returned dirty.
func TestTakeIsMake(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 1031
	for round := 0; round < 3; round++ {
		s := Take(n)
		if len(s) != n || cap(s) != n {
			t.Fatalf("round %d: len %d, cap %d; want %d, %d", round, len(s), cap(s), n, n)
		}
		for i, v := range s {
			if v != 0 {
				t.Fatalf("round %d: s[%d] = %g, want 0", round, i, v)
			}
		}
		for i := range s {
			s[i] = float64(i) + 0.5
		}
		Put(s[:7]) // the whole array goes back, whatever the length
	}
	if s := Take(0); len(s) != 0 {
		t.Fatalf("Take(0) has length %d", len(s))
	}
	Put(nil) // nothing to return
}

// TestPutArrayIsTakenBack: a repeat Take of one length gets the array the
// last Put returned, and a Take of another length never does.
func TestPutArrayIsTakenBack(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	a := Take(977)
	Put(a)
	if b := Take(976); &b[0] == &a[0] {
		t.Fatal("a Take of another length got the array")
	}
	b := Take(977)
	if &b[0] != &a[0] {
		t.Fatal("the array Put returned was not taken back")
	}
	Put(b)
}

// TestSettleLeavesNoPassPending: with the collector off, once Settle
// returns no age pass runs, however long the caller waits — whether a
// collection's pass was pending when it was called or not.
func TestSettleLeavesNoPassPending(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for trial := 0; trial < 20; trial++ {
		if trial%2 == 1 {
			runtime.GC() // its pass may still be pending when Settle starts
		}
		Settle()
		shelvesMu.Lock()
		n := ages
		shelvesMu.Unlock()
		time.Sleep(5 * time.Millisecond)
		shelvesMu.Lock()
		late := ages - n
		shelvesMu.Unlock()
		if late != 0 {
			t.Fatalf("trial %d: %d age passes ran after Settle returned", trial, late)
		}
	}
}

// TestCollectionsDrainIdleShelves: an array still on its shelf at one
// collection and not taken by the next is dropped, and a shelf left empty
// and unused between two collections is removed; one taken and put back
// in between survives.
func TestCollectionsDrainIdleShelves(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const idle, busy = 1033, 1039
	Settle()
	Put(Take(idle))
	Put(Take(busy))
	Settle()
	if shelved(idle) != 1 || shelved(busy) != 1 {
		t.Fatalf("after one collection: %d and %d arrays shelved, want 1 and 1", shelved(idle), shelved(busy))
	}
	Put(Take(busy))
	Settle()
	if shelved(idle) != 0 || shelved(busy) != 1 {
		t.Fatalf("after two collections: %d and %d arrays shelved, want 0 and 1", shelved(idle), shelved(busy))
	}
	Settle()
	shelvesMu.Lock()
	_, kept := shelves[idle]
	shelvesMu.Unlock()
	if kept {
		t.Fatal("an empty shelf unused between two collections was kept")
	}
}

// TestTakePutDoesNotAllocate: once a shelf holds what a solve takes, a
// Take and its Put allocate nothing.
func TestTakePutDoesNotAllocate(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 1049
	Put(Take(n))
	if allocs := testing.AllocsPerRun(100, func() { Put(Take(n)) }); allocs != 0 {
		t.Fatalf("Take + Put: %v allocs, want 0", allocs)
	}
}

// TestConcurrentTakersNeverShare: goroutines taking and putting arrays of
// two lengths at once never hold one array together — each writes its own
// mark and finds it intact before putting the array back.
func TestConcurrentTakersNeverShare(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan int, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := Take(257 + g%2)
				mark := float64(g*1000 + i)
				Fill(s, mark)
				for _, v := range s {
					if v != mark {
						errs <- g
						return
					}
				}
				Put(s)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for g := range errs {
		t.Errorf("goroutine %d found another's mark in an array it held", g)
	}
}
