package workload

import (
	"astriflash/internal/mem"
	"astriflash/internal/sim"
)

func init() { register("tatp", func(cfg Config) Workload { return NewTATP(cfg) }) }

// TATP implements the Telecom Application Transaction Processing
// benchmark's core tables and transaction mix over B+-tree indexes:
// Subscriber, Access_Info, and Special_Facility keyed by subscriber id.
// TATP transactions are short (~10 us, paper Section VI-C uses it for the
// tail-latency study) and read-dominated (80/20 per the standard mix).
type TATP struct {
	cfg         Config
	arena       *mem.Arena
	subscribers *BPTree
	accessInfo  *BPTree
	specialFac  *BPTree
	zipf        sampler
	rng         *sim.RNG
	jobTr       Tracer
}

// NewTATP builds the database sized to the configured dataset: roughly
// one subscriber row plus 2.5 auxiliary rows per 4 records of page
// footprint.
func NewTATP(cfg Config) *TATP {
	// Each subscriber contributes ~3.5 tree entries; leaves average ~70%
	// fill (~150 entries per page). Budget pages so the arena holds all
	// three trees with internal-node slack.
	subs := cfg.DatasetBytes / 4096 * 150 / 5
	if subs < 1024 {
		subs = 1024
	}
	return newTATP(cfg, subs)
}

// newTATP builds the database with subs subscribers in an arena of the
// configured dataset size.
func newTATP(cfg Config, subs uint64) *TATP {
	arena := mem.NewArena(0, cfg.DatasetBytes)
	t := &TATP{
		cfg:         cfg,
		arena:       arena,
		subscribers: NewBPTree(arena, 256),
		accessInfo:  NewBPTree(arena, 256),
		specialFac:  NewBPTree(arena, 256),
	}
	t.load(subs)
	rng := newRNG(cfg, 0x7a79)
	// Each row draws a payload no tree stores. Skipping the draws in one
	// step leaves the generator where one draw per row would, which fixes
	// the stream the sampler's seed and every job's operations are taken
	// from.
	rng.Skip(3*subs + (subs+1)/2)
	// Subscriber ids key the trees directly, so hot subscribers occupy
	// contiguous leaves (~50 effective items per hot page across the
	// three tables).
	t.zipf = newSampler(cfg, rng, subs, hotPageBudget(cfg)*20)
	t.rng = rng
	return t
}

// load inserts subs subscribers' rows in ascending key order: subscriber
// s, its access-info rows s*4 and s*4+1 (1-4 per subscriber in real TATP;
// model 2), and a special-facility row for even s (one in two). Between
// splits it appends the largest run of whole subscribers every tail
// takes, and a subscriber that needs a split goes through Insert, so the
// splits, and the pages they take from the shared arena, come in the
// order of one Insert per row.
func (t *TATP) load(subs uint64) {
	for s := uint64(0); s < subs; {
		k := tatpBatch(s, subs-s, t.subscribers.tailRoom(), t.accessInfo.tailRoom(), t.specialFac.tailRoom())
		if k == 0 {
			t.subscribers.Insert(s, nil)
			t.accessInfo.Insert(s*4, nil)
			t.accessInfo.Insert(s*4+1, nil)
			if s%2 == 0 {
				t.specialFac.Insert(s, nil)
			}
			s++
			continue
		}
		t.subscribers.appendRun(s, int(k), 1, 1)
		t.accessInfo.appendRun(s*4, int(2*k), 1, 3)
		even := s + s%2
		t.specialFac.appendRun(even, int((s+k-even+1)/2), 2, 2)
		s += k
	}
}

// tatpBatch returns the largest number of whole subscribers from s, at
// most left, whose rows fit tails with room for subRoom subscriber,
// accRoom access-info and facRoom special-facility keys: one, two, and
// (k+1)/2 from an even s or k/2 from an odd one.
func tatpBatch(s, left uint64, subRoom, accRoom, facRoom int) uint64 {
	return min(left, uint64(subRoom), uint64(accRoom/2), 2*uint64(facRoom)+s%2)
}

// Name implements Workload.
func (t *TATP) Name() string { return "tatp" }

// DatasetPages implements Workload.
func (t *TATP) DatasetPages() uint64 { return t.arena.Pages() }

// MaxJobSteps returns the longest trace a job emits: OpsPerJob times the
// mix's longest operation, GET_NEW_DESTINATION's two gets or
// UPDATE_SUBSCRIBER_DATA's two updates. A get traces one access per level
// of its tree, and an update of a present key one more for the leaf
// write. Jobs never insert, so the heights are the build's.
func (t *TATP) MaxJobSteps() int {
	sub, acc, fac := t.subscribers.Height(), t.accessInfo.Height(), t.specialFac.Height()
	return t.cfg.OpsPerJob * max(fac+acc, sub+1+fac+1)
}

// NewJobSteps runs one TATP transaction drawn from the standard mix:
//
//	35% GET_SUBSCRIBER_DATA, 35% GET_ACCESS_DATA, 10% GET_NEW_DESTINATION,
//	14% UPDATE_LOCATION, 2% UPDATE_SUBSCRIBER_DATA, 4% forwarding ops
//	(modeled as special-facility updates; the real insert/delete pair has
//	the same access shape).
//
// The trace is written into buf.
func (t *TATP) NewJobSteps(buf []Step) []Step {
	t.jobTr.Reset(t.cfg.ComputePerAccessNs, buf)
	tr := &t.jobTr
	// Updates draw the new row payload, unstored, so later operations
	// take the same draws.
	for op := 0; op < t.cfg.OpsPerJob; op++ {
		s := t.zipf.Next()
		switch p := t.rng.Float64(); {
		case p < 0.35: // GET_SUBSCRIBER_DATA
			t.subscribers.Get(s, tr)
		case p < 0.70: // GET_ACCESS_DATA
			t.accessInfo.Get(s*4+uint64(t.rng.Intn(2)), tr)
		case p < 0.80: // GET_NEW_DESTINATION
			t.specialFac.Get(s&^1, tr)
			t.accessInfo.Get((s&^1)*4, tr)
		case p < 0.94: // UPDATE_LOCATION
			t.rng.Uint64()
			t.subscribers.Update(s, tr)
		case p < 0.96: // UPDATE_SUBSCRIBER_DATA
			t.rng.Uint64()
			t.subscribers.Update(s, tr)
			t.rng.Uint64()
			t.specialFac.Update(s&^1, tr)
		default: // INSERT/DELETE_CALL_FORWARDING shape
			t.rng.Uint64()
			t.specialFac.Update(s&^1, tr)
		}
	}
	return tr.Take()
}
