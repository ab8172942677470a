package sim

// Queue is a FIFO over one slice, for the simulated schedulers' run
// queues. Pops advance a head offset; a push that finds the slice full
// first slides the live entries back to the front, so a queue whose depth
// stays bounded reuses its backing array instead of regrowing it the way
// q = q[1:] does. The zero value is an empty queue.
type Queue[T any] struct {
	buf []T
	off int // index of the head in buf
}

// NewQueue returns an empty queue that starts on buf's backing array, so
// a caller can carve many queues out of one slab.
func NewQueue[T any](buf []T) Queue[T] { return Queue[T]{buf: buf[:0]} }

// Len returns the number of queued entries.
func (q *Queue[T]) Len() int { return len(q.buf) - q.off }

// Head returns the oldest entry; the queue must not be empty.
func (q *Queue[T]) Head() T { return q.buf[q.off] }

// Items returns the queued entries, oldest first. The slice aliases the
// queue and is valid until the next Push or Pop.
func (q *Queue[T]) Items() []T { return q.buf[q.off:] }

// Push appends v.
func (q *Queue[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) && q.off > 0 {
		n := copy(q.buf, q.buf[q.off:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.off = 0
	}
	q.buf = append(q.buf, v)
}

// Pop removes and returns the oldest entry; the queue must not be empty.
func (q *Queue[T]) Pop() T {
	v := q.buf[q.off]
	var zero T
	q.buf[q.off] = zero
	q.off++
	if q.off == len(q.buf) {
		// Emptied: rewind to the start of the backing array.
		q.buf = q.buf[:0]
		q.off = 0
	}
	return v
}
