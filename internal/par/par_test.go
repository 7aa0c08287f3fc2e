package par

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cases := []struct{ in, want int }{
		{0, procs}, {-1, procs}, {-8, procs}, {1, 1}, {2, 2}, {17, 17},
	}
	for _, tc := range cases {
		if got := Workers(tc.in); got != tc.want {
			t.Errorf("Workers(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		for _, n := range []int{0, 1, chunk - 1, chunk, 3*chunk + 5, 1000} {
			hits := make([]atomic.Int32, n)
			For(workers, n, func(worker, i int) {
				if worker < 0 || worker >= Workers(workers) {
					t.Errorf("worker id %d out of range", worker)
				}
				hits[i].Add(1)
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestForErrPropagatesFirstError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		err := ForErr(workers, 1000, func(worker, i int) error {
			if i == 137 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: got %v, want %v", workers, err, boom)
		}
	}
	if err := ForErr(4, 1000, func(worker, i int) error { return nil }); err != nil {
		t.Fatalf("clean run returned %v", err)
	}
}

// TestForSpreadsShortLoops pins that a loop of fewer than chunk items per
// worker still runs on the whole pool: every call blocks until all workers
// are inside one, which only completes if each worker claimed its own item.
func TestForSpreadsShortLoops(t *testing.T) {
	const workers = 4
	var inside atomic.Int32
	all := make(chan struct{})
	For(workers, workers, func(worker, i int) {
		if inside.Add(1) == workers {
			close(all)
		}
		select {
		case <-all:
		case <-time.After(10 * time.Second):
			t.Errorf("item %d: the %d items never ran at once", i, workers)
		}
	})
}
