package vec

import (
	"runtime"
	"sync"
	"unsafe"
)

// Take and Put keep a solve's working vectors — r, z, p, q, a snapshot's
// copies, a rank's blocks — from one solve to the next, on one shelf per
// length, so a repeat solve allocates only what it hands to its caller.
// Whoever took a slice owns it until it puts it back, once, when nothing
// reads it any more: a slice put back while a solve still reads it would
// be silent corruption.
//
// The collector drains idle shelves as it drains a sync.Pool: an array on
// its shelf at one collection and not taken by the next is dropped, and so
// is a shelf left empty and unused between two. A sync.Pool is not used:
// its per-P chains allocate when a goroutine changes P between a Put and a
// Take, which puts stray mallocs into solves whose counts are pinned.

// shelf holds arrays of one length by their first elements; arrays[:aged]
// have sat there since the last collection. used: a Take or Put since then.
type shelf struct {
	arrays []*float64
	aged   int
	used   bool
}

var (
	shelvesMu sync.Mutex
	shelves   = map[int]*shelf{}
	ages      int // age passes run, one per collection
)

// gcTick's finalizer ages the shelves after every collection and re-arms
// itself, under the lock (see Settle). It holds a pointer: a finalizer on a
// tiny object may never run.
type gcTick struct{ _ *int }

func init() { runtime.SetFinalizer(&gcTick{}, onGC) }

func onGC(t *gcTick) {
	shelvesMu.Lock()
	defer shelvesMu.Unlock()
	ages++
	for n, s := range shelves {
		k := copy(s.arrays, s.arrays[s.aged:])
		clear(s.arrays[k:])
		s.arrays, s.aged = s.arrays[:k], k
		if k == 0 && !s.used {
			delete(shelves, n)
		}
		s.used = false
	}
	runtime.SetFinalizer(t, onGC)
}

// Settle runs a collection and returns once an age pass has run after it
// began; none runs again until the next collection. With the collector off
// (debug.SetGCPercent(-1)) the shelves then change only by Take and Put,
// which is what an allocation count over a solve needs. The lock is held
// through the collection, so no pass ends between reading the count and
// the collection's start: the collection finds the tick armed and queues a
// pass, or one is queued or waiting on the lock already, and either way
// exactly one more pass ends.
func Settle() {
	shelvesMu.Lock()
	n := ages
	runtime.GC()
	shelvesMu.Unlock()
	for {
		shelvesMu.Lock()
		done := ages != n
		shelvesMu.Unlock()
		if done {
			return
		}
		runtime.Gosched()
	}
}

// Take returns a zeroed slice of length and capacity n, as make does,
// reusing the array Put returned last when n's shelf holds one.
func Take(n int) []float64 {
	var p *float64
	shelvesMu.Lock()
	if s := shelves[n]; s != nil && len(s.arrays) > 0 {
		k := len(s.arrays) - 1
		p, s.arrays[k] = s.arrays[k], nil
		s.arrays, s.aged, s.used = s.arrays[:k], min(s.aged, k), true
	}
	shelvesMu.Unlock()
	if p == nil {
		return make([]float64, n)
	}
	v := unsafe.Slice(p, n)
	clear(v)
	return v
}

// Put hands v's whole array (its capacity) back for a later Take; the
// caller gives up every slice of it.
func Put(v []float64) {
	n := cap(v)
	if n == 0 {
		return
	}
	shelvesMu.Lock()
	s := shelves[n]
	if s == nil {
		s = new(shelf)
		shelves[n] = s
	}
	s.arrays, s.used = append(s.arrays, &v[:n][0]), true
	shelvesMu.Unlock()
}

// Taken lists the slices one owner took, to put back all at once.
type Taken [][]float64

// Take is Take, listed.
func (t *Taken) Take(n int) []float64 {
	v := Take(n)
	*t = append(*t, v)
	return v
}

// PutAll puts back every slice listed and empties the list.
func (t *Taken) PutAll() {
	for i, v := range *t {
		Put(v)
		(*t)[i] = nil
	}
	*t = (*t)[:0]
}
