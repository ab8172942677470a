package sim

import "testing"

// orderModel runs a byte-coded program against an Engine and checks every
// firing against a reference: a plain list of the queued (at, seq) keys,
// searched linearly for the minimum. Events are numbered by their push
// order, which is the engine's seq.
type orderModel struct {
	t      *testing.T
	e      *Engine
	prog   []byte
	pc     int
	queue  []orderKey
	seq    uint64
	fired  int
	nested bool
	// clock is the latest time observed on the engine.
	clock Time
}

type orderKey struct {
	at  Time
	seq uint64
}

// orderArg is the AtFunc argument: the model and the event's number.
type orderArg struct {
	m   *orderModel
	seq uint64
}

func fireOrderArg(a any) {
	oa := a.(*orderArg)
	oa.m.fire(oa.seq)
}

// orderDelays are the scheduling horizons. The first eight are zero or
// tiny, so many events share an instant and ties decide the order. The
// rest straddle the timing wheel's horizon, so overflow events meet wheel
// events at one instant, and reach a flash read's 50 µs.
var orderDelays = [16]Time{0, 0, 0, 1, 1, 2, 7, 40, 1, 2, 510, 511, 512, 513, 1000, 50_000}

// orderBudget caps the events one program schedules, so a program whose
// callbacks keep pushing still ends.
const orderBudget = 3000

// next returns the program's next byte, or 0 once it is used up; a zero
// byte schedules nothing from a callback, so the run drains.
func (m *orderModel) next() byte {
	if m.pc >= len(m.prog) {
		return 0
	}
	b := m.prog[m.pc]
	m.pc++
	return b
}

// schedule pushes one event through At or AtFunc, chosen by the next
// byte along with its delay: bits 0-2 and 4 pick the delay, bit 3 the
// call.
func (m *orderModel) schedule() {
	b := m.next()
	at := m.e.Now() + orderDelays[b&7|b>>1&8]
	m.seq++
	seq := m.seq
	if b&8 == 0 {
		m.e.At(at, func() { m.fire(seq) })
	} else {
		m.e.AtFunc(at, fireOrderArg, &orderArg{m, seq})
	}
	m.queue = append(m.queue, orderKey{at, seq})
}

// fire is every event's callback. It checks that the event is the
// reference's minimum, that the clock has not gone back and that Pending
// excludes the event, then pushes 0-3 successors, and may call a nested
// Step.
func (m *orderModel) fire(seq uint64) {
	m.fired++
	best := 0
	for i, k := range m.queue {
		b := m.queue[best]
		if k.at < b.at || k.at == b.at && k.seq < b.seq {
			best = i
		}
	}
	if len(m.queue) == 0 || m.queue[best].seq != seq {
		m.t.Fatalf("event %d fired; reference queue %v", seq, m.queue)
	}
	if m.e.Now() != m.queue[best].at {
		m.t.Fatalf("event %d fired at %d, want %d", seq, m.e.Now(), m.queue[best].at)
	}
	m.checkClock("event")
	m.queue = append(m.queue[:best], m.queue[best+1:]...)
	m.checkPending("callback entry")
	b := m.next()
	for i := 0; i < int(b&3) && m.seq < orderBudget; i++ {
		m.schedule()
		m.checkPending("callback push")
	}
	if b&0x1c == 0x1c && !m.nested {
		m.nested = true
		m.step("nested Step")
		m.nested = false
	}
}

// checkClock fails if the engine's clock is behind a time it showed
// before.
func (m *orderModel) checkClock(where string) {
	if now := m.e.Now(); now < m.clock {
		m.t.Fatalf("%s: clock went back from %d to %d", where, m.clock, now)
	}
	m.clock = m.e.Now()
}

func (m *orderModel) checkPending(where string) {
	if got := m.e.Pending(); got != len(m.queue) {
		m.t.Fatalf("%s: Pending() = %d, reference holds %d", where, got, len(m.queue))
	}
}

// step calls Step and checks it fires exactly when the reference holds an
// event.
func (m *orderModel) step(where string) {
	want := len(m.queue) > 0
	before := m.fired
	got := m.e.Step()
	if got != want || (m.fired > before) != want {
		m.t.Fatalf("%s: Step() = %v after %d firings, want %v", where, got, m.fired-before, want)
	}
	m.checkPending(where)
}

// FuzzEngineOrder checks that the engine fires events in exactly (at, seq)
// order, with a clock that never goes back, whatever mix of At and AtFunc
// calls a program makes from outside and inside callbacks, and across
// RunUntil and Step.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4})
	f.Add([]byte{0x18, 0x03, 0x0b, 0x13, 0x1b, 0x23, 0xff, 0x1f, 0x04, 0x05, 0x03})
	f.Fuzz(func(t *testing.T, prog []byte) {
		m := &orderModel{t: t, e: NewEngine(), prog: prog}
		for m.pc < len(m.prog) {
			op := m.next()
			switch op % 5 {
			case 0, 1, 2:
				if m.seq < orderBudget {
					m.schedule()
				}
			case 3:
				// Up to 961 ns, so a RunUntil can carry the clock
				// across the wheel's horizon.
				until := m.e.Now() + Time(op>>3)*Time(op>>3)
				m.e.RunUntil(until)
				if m.e.Now() < until {
					t.Fatalf("RunUntil(%d) left the clock at %d", until, m.e.Now())
				}
				for _, k := range m.queue {
					if k.at <= until {
						t.Fatalf("RunUntil(%d) left event %d at %d queued", until, k.seq, k.at)
					}
				}
			case 4:
				m.step("Step")
			}
			m.checkClock("top level")
			m.checkPending("top level")
		}
		m.e.Run()
		m.checkPending("drained")
		if uint64(m.fired) != m.seq || m.e.Fired() != m.seq {
			t.Fatalf("fired %d (engine %d) of %d scheduled events", m.fired, m.e.Fired(), m.seq)
		}
	})
}
