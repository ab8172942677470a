package sim

import (
	"reflect"
	"testing"
)

func TestQueueFIFO(t *testing.T) {
	var q Queue[int]
	for i := 1; i <= 5; i++ {
		q.Push(i)
	}
	if q.Pop() != 1 || q.Head() != 2 || q.Len() != 4 {
		t.Fatalf("after one pop: head %d, len %d", q.Head(), q.Len())
	}
	if got := q.Items(); !reflect.DeepEqual(got, []int{2, 3, 4, 5}) {
		t.Fatalf("items %v, want [2 3 4 5]", got)
	}
	for _, want := range []int{2, 3, 4, 5} {
		if got := q.Pop(); got != want {
			t.Fatalf("pop %d, want %d", got, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("drained queue has len %d", q.Len())
	}
}

// A queue whose depth stays bounded reuses its backing array: pushes
// slide the live entries forward instead of growing it.
func TestQueueBoundedDepthAllocFree(t *testing.T) {
	q := NewQueue(make([]int, 0, 4))
	q.Push(0)
	q.Push(1)
	n := 2
	cycle := func() {
		q.Push(n)
		n++
		if q.Pop() != n-3 {
			t.Fatal("FIFO order broken across a slide")
		}
	}
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Fatalf("%.1f allocations per push/pop at depth 2, want 0", got)
	}
}
