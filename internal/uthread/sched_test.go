package uthread

import (
	"testing"

	"astriflash/internal/sim"
)

func newSched(policy Policy) *Scheduler {
	cfg := DefaultConfig()
	cfg.Policy = policy
	return NewScheduler(cfg)
}

func TestSpawnAndPick(t *testing.T) {
	s := newSched(PriorityAging)
	th := s.Spawn(new(Thread), "job-a", 0)
	if s.QueuedNew() != 1 {
		t.Fatalf("queued = %d", s.QueuedNew())
	}
	got := s.PickNext(0)
	if got != th {
		t.Fatal("picked wrong thread")
	}
	if s.running != th {
		t.Fatal("running not installed")
	}
	s.Finish()
	if s.running != nil {
		t.Fatal("finish did not clear running")
	}
}

func TestOnMissParksThread(t *testing.T) {
	s := newSched(PriorityAging)
	th := s.Spawn(new(Thread), "a", 0)
	s.PickNext(0)
	blockOn, switched := s.OnMiss(100)
	if !switched || blockOn != nil {
		t.Fatal("miss with room should switch")
	}
	if s.QueuedPending() != 1 {
		t.Fatalf("pending = %d", s.QueuedPending())
	}
	if th.PendingSince != 100 {
		t.Fatalf("pending since = %d", th.PendingSince)
	}
	if th.Switches != 1 {
		t.Fatalf("switches = %d", th.Switches)
	}
}

func TestPendingFullBlocks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PendingLimit = 1
	s := NewScheduler(cfg)
	a := s.Spawn(new(Thread), "a", 0)
	b := s.Spawn(new(Thread), "b", 0)
	s.PickNext(0)
	s.OnMiss(10) // a parks
	if s.PickNext(10) != b {
		t.Fatal("expected b to run")
	}
	blockOn, switched := s.OnMiss(20)
	if switched || blockOn != b {
		t.Fatalf("full pending queue should block on the running thread, got %v/%v", blockOn, switched)
	}
	if s.BlockedFull.Value() != 1 {
		t.Fatal("block not counted")
	}
	_ = a
}

func TestNotifyReadyPromotesPendingHead(t *testing.T) {
	s := newSched(PriorityAging)
	a := s.Spawn(new(Thread), "a", 0)
	s.Spawn(new(Thread), "b", 0)
	s.PickNext(0)
	s.OnMiss(10) // a pending
	s.NotifyReady(a, 60_010)
	// Even though a fresh job exists, the ready pending head wins.
	got := s.PickNext(60_020)
	if got != a {
		t.Fatalf("picked %v, want ready pending thread", got.Payload)
	}
	if s.ReadyPromos.Value() != 1 {
		t.Fatal("ready promotion not counted")
	}
}

func TestAgingPromotesStarvingHead(t *testing.T) {
	s := newSched(PriorityAging)
	a := s.Spawn(new(Thread), "a", 0)
	for i := 0; i < 10; i++ {
		s.Spawn(new(Thread), i, 0)
	}
	s.PickNext(0)
	s.OnMiss(10) // a pending, never notified
	// Within the aging window new jobs win.
	early := s.PickNext(100)
	if early == a {
		t.Fatal("pending head promoted before aging threshold")
	}
	s.Finish()
	// Far beyond AgingFactor x the average flash response, the head must
	// be promoted even though it is not ready.
	threshold := int64(s.avgFlash * s.Config().AgingFactor)
	late := s.PickNext(10 + threshold + 1)
	if late != a {
		t.Fatal("aged pending head not promoted; scheduler starves")
	}
	if s.AgedPromos.Value() != 1 {
		t.Fatal("aged promotion not counted")
	}
}

func TestFIFOPolicyStarvesPending(t *testing.T) {
	s := newSched(FIFONoPriority)
	a := s.Spawn(new(Thread), "a", 0)
	s.PickNext(0)
	s.OnMiss(10)
	s.NotifyReady(a, 20)
	// The pick right after a miss may consult the pending queue; a is
	// ready, so it runs once.
	if s.PickNext(25) != a {
		t.Fatal("ready pending head not taken at the miss event")
	}
	s.OnMiss(30) // a parks again, not yet ready
	// At the miss event the head is not ready, so a new job wins and the
	// event is consumed.
	b0 := s.Spawn(new(Thread), "b0", 0)
	if s.PickNext(31) != b0 {
		t.Fatal("unready pending head should lose to a new job")
	}
	s.Finish()
	s.NotifyReady(a, 40)
	// Away from miss events, fresh jobs always win under FIFO/noPS even
	// though a is ready — the starvation Table II quantifies.
	for i := 0; i < 5; i++ {
		b := s.Spawn(new(Thread), i, 0)
		if s.PickNext(sim.Time(50+i)) != b {
			t.Fatal("FIFO did not prefer the new job away from miss events")
		}
		s.Finish()
	}
	// With no new jobs the pending head finally runs.
	if s.PickNext(100) != a {
		t.Fatal("pending head not drained when new queue empty")
	}
}

func TestPriorityFallsBackToPendingWhenNoNewJobs(t *testing.T) {
	s := newSched(PriorityAging)
	a := s.Spawn(new(Thread), "a", 0)
	s.PickNext(0)
	s.OnMiss(10)
	got := s.PickNext(11) // not ready, not aged, but nothing else to do
	if got != a {
		t.Fatal("scheduler idled with a pending thread available")
	}
}

func TestPickNextEmpty(t *testing.T) {
	s := newSched(PriorityAging)
	if s.PickNext(0) != nil {
		t.Fatal("empty scheduler returned a thread")
	}
}

func TestAvgFlashEWMAAdapts(t *testing.T) {
	s := newSched(PriorityAging)
	before := s.avgFlash
	th := s.Spawn(new(Thread), "a", 0)
	s.PickNext(0)
	s.OnMiss(0)
	s.NotifyReady(th, 200_000) // much slower than the 50 us estimate
	if s.avgFlash <= before {
		t.Fatal("EWMA did not move toward slower observations")
	}
	// Repeated fast observations pull it back down.
	for i := 1; i <= 50; i++ {
		now := sim.Time(200_000 + 20_000*i)
		if s.PickNext(now) != th {
			t.Fatal("ready thread not schedulable")
		}
		s.OnMiss(now)
		s.NotifyReady(th, now+10_000)
		s.Spawn(new(Thread), i, 0) // keep shapes realistic
	}
	if s.avgFlash > 100_000 {
		t.Fatalf("EWMA stuck high: %.0f", s.avgFlash)
	}
}

func TestSchedulerPanicsOnMisuse(t *testing.T) {
	for name, f := range map[string]func(){
		"onmiss-idle": func() { newSched(PriorityAging).OnMiss(0) },
		"finish-idle": func() { newSched(PriorityAging).Finish() },
		"pick-while-running": func() {
			s := newSched(PriorityAging)
			s.Spawn(new(Thread), "a", 0)
			s.Spawn(new(Thread), "b", 0)
			s.PickNext(0)
			s.PickNext(0)
		},
		"bad-config": func() { NewScheduler(Config{PendingLimit: 0}) },
	} {
		name, f := name, f
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestNoStarvationProperty: under any interleaving of new-job arrivals,
// a pending thread is always scheduled within a bounded number of picks
// once past the aging threshold.
func TestNoStarvationProperty(t *testing.T) {
	rng := sim.NewRNG(42)
	for trial := 0; trial < 100; trial++ {
		s := newSched(PriorityAging)
		victim := s.Spawn(new(Thread), "victim", 0)
		s.PickNext(0)
		s.OnMiss(0)
		now := sim.Time(0)
		picksUntilVictim := 0
		for {
			// Adversarial load: always have fresh jobs available.
			s.Spawn(new(Thread), picksUntilVictim, now)
			now += sim.Time(1000 + rng.Intn(20_000))
			got := s.PickNext(now)
			if got == victim {
				break
			}
			s.Finish()
			picksUntilVictim++
			if picksUntilVictim > 1000 {
				t.Fatal("victim starved for 1000 scheduling rounds")
			}
		}
	}
}

// TestSchedulerCycleAllocFree pins the switch-on-miss cycle at zero heap
// allocations once warm: the caller owns the threads, and both queues
// reuse their backing arrays.
func TestSchedulerCycleAllocFree(t *testing.T) {
	for _, policy := range []Policy{PriorityAging, FIFONoPriority} {
		cfg := DefaultConfig()
		cfg.Policy = policy
		s := NewScheduler(cfg)
		ths := make([]Thread, cfg.PendingLimit)
		now := sim.Time(0)
		cycle := func() {
			for i := range ths {
				s.Spawn(&ths[i], nil, now)
			}
			for range ths {
				s.PickNext(now)
				if _, switched := s.OnMiss(now); !switched {
					t.Fatal("pending queue full")
				}
			}
			now += 1000
			for i := range ths {
				s.NotifyReady(&ths[i], now)
			}
			for range ths {
				if s.PickNext(now) == nil {
					t.Fatal("ready thread not picked")
				}
				s.Finish()
			}
		}
		cycle()
		if got := testing.AllocsPerRun(20, cycle); got != 0 {
			t.Errorf("%v: %.1f allocations per spawn/miss/pick/finish cycle, want 0", policy, got)
		}
	}
}
