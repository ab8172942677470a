package workload

import (
	"fmt"

	"astriflash/internal/mem"
	"astriflash/internal/sim"
)

func init() { register("silo", func(cfg Config) Workload { return NewSilo(cfg) }) }

// record is one Silo database record: a value guarded by a version word
// (TID in Silo's terms). The version word lives at the record's arena
// address; OCC validation re-reads it.
type record struct {
	addr    mem.Addr
	version uint64
	value   uint64
	locked  bool
}

// SiloDB is a Silo-style optimistic-concurrency in-memory store: a
// B+-tree index maps keys to version-guarded records, and transactions
// run the classic OCC protocol — read-set tracking, write buffering,
// commit-time lock + validate + install (Silo, SOSP'13; the Tailbench
// silo workload the paper ports, Section V-A).
type SiloDB struct {
	index   *BPTree
	records map[uint64]*record
	arena   *mem.Arena

	Commits uint64
	Aborts  uint64
}

// NewSiloDB returns an empty store.
func NewSiloDB(arena *mem.Arena) *SiloDB {
	return &SiloDB{index: NewBPTree(arena, 256), records: make(map[uint64]*record), arena: arena}
}

// Load inserts a record without transaction machinery (initial load).
func (db *SiloDB) Load(key, value uint64, tr *Tracer) {
	r := &record{addr: db.arena.Alloc(64, 64), value: value, version: 1}
	db.records[key] = r
	db.index.Insert(key, tr)
}

// Size returns the record count.
func (db *SiloDB) Size() int { return len(db.records) }

// Txn is one OCC transaction.
type Txn struct {
	db        *SiloDB
	tr        *Tracer
	readSet   map[uint64]uint64 // key -> observed version
	readOrder []uint64          // read keys in first-read order (determinism)
	writeSet  map[uint64]uint64 // key -> new value
	order     []uint64          // write keys in lock order (sorted on commit)
	locked    []*record         // records Commit has locked
	done      bool
}

// Begin starts a transaction tracing into tr.
func (db *SiloDB) Begin(tr *Tracer) *Txn {
	t := new(Txn)
	db.begin(t, tr)
	return t
}

// begin restarts t as a new transaction tracing into tr, keeping the
// storage of its read and write sets, so a reused Txn allocates nothing.
func (db *SiloDB) begin(t *Txn, tr *Tracer) {
	if t.readSet == nil {
		t.readSet, t.writeSet = make(map[uint64]uint64), make(map[uint64]uint64)
	}
	clear(t.readSet)
	clear(t.writeSet)
	*t = Txn{db: db, tr: tr, readSet: t.readSet, readOrder: t.readOrder[:0],
		writeSet: t.writeSet, order: t.order[:0], locked: t.locked[:0]}
}

// Read looks key up through the index and records the version it first
// observes: a re-read after another commit must not replace it, or
// validation would pass a transaction that saw two versions of the key.
func (t *Txn) Read(key uint64) (uint64, bool) {
	if t.done {
		panic("workload: Read on finished txn")
	}
	if v, ok := t.writeSet[key]; ok {
		return v, true // read-your-writes
	}
	if !t.db.index.Get(key, t.tr) {
		return 0, false
	}
	r := t.db.records[key]
	t.tr.Touch(r.addr, false)
	if _, seen := t.readSet[key]; !seen {
		t.readOrder = append(t.readOrder, key)
		t.readSet[key] = r.version
	}
	return r.value, true
}

// Write buffers a new value for key; nothing reaches the record until
// commit.
func (t *Txn) Write(key, value uint64) {
	if t.done {
		panic("workload: Write on finished txn")
	}
	if _, ok := t.writeSet[key]; !ok {
		t.order = append(t.order, key)
	}
	t.writeSet[key] = value
}

// Commit runs Silo's three-phase protocol: lock the write set in sorted
// key order, validate the read set's versions, then install writes and
// bump versions. It reports whether the transaction committed.
func (t *Txn) Commit() bool {
	if t.done {
		panic("workload: Commit on finished txn")
	}
	t.done = true

	sortU64(t.order)
	abort := func() bool {
		for _, r := range t.locked {
			r.locked = false
		}
		t.db.Aborts++
		return false
	}
	// Phase 1: lock write set.
	for _, k := range t.order {
		if !t.db.index.Get(k, t.tr) {
			return abort()
		}
		r := t.db.records[k]
		t.tr.Touch(r.addr, true) // lock CAS
		if r.locked {
			return abort()
		}
		r.locked = true
		t.locked = append(t.locked, r)
	}
	// Phase 2: validate read set (re-read version words) in first-read
	// order so traces are deterministic.
	for _, k := range t.readOrder {
		seen := t.readSet[k]
		r := t.db.records[k]
		if r == nil {
			return abort()
		}
		t.tr.Touch(r.addr, false)
		if r.version != seen {
			return abort()
		}
		if r.locked && !t.inWriteSet(k) {
			return abort()
		}
	}
	// Phase 3: install writes, bump versions, unlock.
	for _, k := range t.order {
		r := t.db.records[k]
		r.value = t.writeSet[k]
		r.version++
		r.locked = false
		t.tr.Touch(r.addr, true)
	}
	t.db.Commits++
	return true
}

func (t *Txn) inWriteSet(k uint64) bool {
	_, ok := t.writeSet[k]
	return ok
}

func sortU64(xs []uint64) {
	// Insertion sort: write sets are small (<= tens of keys).
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j-1] > xs[j]; j-- {
			xs[j-1], xs[j] = xs[j], xs[j-1]
		}
	}
}

// SiloWorkload drives read-mostly OCC transactions over the store.
type SiloWorkload struct {
	cfg   Config
	db    *SiloDB
	arena *mem.Arena
	keys  uint64
	zipf  sampler
	rng   *sim.RNG
	jobTr Tracer
	txn   Txn // reused by every job
}

// NewSilo builds the store: records at 64 B plus the index.
func NewSilo(cfg Config) *SiloWorkload {
	arena := mem.NewArena(0, cfg.DatasetBytes)
	// Measured footprint is ~112 B per key (64 B record + ~48 B of index
	// at observed leaf fill); budget 128 B per key for slack.
	keys := cfg.DatasetBytes / 128
	db := NewSiloDB(arena)
	rng := newRNG(cfg, 0x5170)
	for i := uint64(0); i < keys; i++ {
		db.Load(scrambleKey(i), i, nil)
	}
	return &SiloWorkload{
		cfg:   cfg,
		db:    db,
		arena: arena,
		keys:  keys,
		// Index leaves are keyed by scrambled keys (scattered); records are
		// insertion-ordered (clustered). Budget ~2 pages per hot item.
		zipf: newSampler(cfg, rng, keys, hotPageBudget(cfg)/2+1),
		rng:  rng,
	}
}

// Name implements Workload.
func (w *SiloWorkload) Name() string { return "silo" }

// DatasetPages implements Workload.
func (w *SiloWorkload) DatasetPages() uint64 { return w.arena.Pages() }

// NewJobSteps runs one OCC transaction: OpsPerJob reads with WriteFraction of
// them promoted to read-modify-writes, then commit.
// The trace is written into buf.
func (w *SiloWorkload) NewJobSteps(buf []Step) []Step {
	w.jobTr.Reset(w.cfg.ComputePerAccessNs, buf)
	tr := &w.jobTr
	txn := &w.txn
	w.db.begin(txn, tr)
	for op := 0; op < w.cfg.OpsPerJob; op++ {
		key := scrambleKey(w.zipf.Next())
		v, ok := txn.Read(key)
		if !ok {
			panic(fmt.Sprintf("workload: silo key %d missing", key))
		}
		if w.rng.Float64() < w.cfg.WriteFraction {
			txn.Write(key, v+1)
		}
	}
	txn.Commit()
	return tr.Take()
}
