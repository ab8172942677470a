package workload

import (
	"astriflash/internal/mem"
	"astriflash/internal/sim"
)

func init() { register("tpcc", func(cfg Config) Workload { return NewTPCC(cfg) }) }

// TPCC implements the TPC-C NewOrder and Payment transactions (the pair
// the paper runs, Section V-A) over B+-tree tables: Warehouse, District,
// Customer, Item, Stock, and Orders/OrderLine logs. NewOrder reads ~10
// item and stock rows and inserts order lines, making it the most
// computationally intensive workload in the mix — the paper notes TPCC
// sees the largest ROB-flush penalty (Section VI-A).
type TPCC struct {
	cfg        Config
	arena      *mem.Arena
	warehouse  *BPTree
	district   *BPTree
	customer   *BPTree
	item       *BPTree
	stock      *BPTree
	orders     *BPTree
	orderLines *BPTree

	warehouses uint64
	items      uint64
	custPerD   uint64
	nextOrder  uint64
	nextOL     uint64

	custZipf sampler
	itemZipf sampler
	rng      *sim.RNG
	jobTr    Tracer
}

const (
	tpccDistrictsPerW = 10
	tpccOLPerOrder    = 10
	tpccMinItems      = 4096
)

// NewTPCC builds the database: item and stock tables dominate the
// footprint (100 K items per the spec, scaled to the dataset budget).
func NewTPCC(cfg Config) *TPCC {
	// Reserve half the arena as order/order-line insert headroom.
	arena := mem.NewArena(0, cfg.DatasetBytes*2)
	// Entries: items + stock (x warehouses) + customers. B+tree leaves
	// average ~70% fill, so budget ~150 entries per dataset page and
	// split the budget: stock = 4 x items takes half, customers a
	// quarter, items an eighth, leaving slack for internal nodes.
	totalEntries := cfg.DatasetBytes / 4096 * 150
	items := max(totalEntries/8, tpccMinItems)
	warehouses := uint64(4)
	custPerD := totalEntries / 4 / (warehouses * tpccDistrictsPerW)
	if custPerD < 64 {
		custPerD = 64
	}
	t := &TPCC{
		cfg:        cfg,
		arena:      arena,
		warehouse:  NewBPTree(arena, 256),
		district:   NewBPTree(arena, 256),
		customer:   NewBPTree(arena, 256),
		item:       NewBPTree(arena, 256),
		stock:      NewBPTree(arena, 256),
		orders:     NewBPTree(arena, 256),
		orderLines: NewBPTree(arena, 256),
		warehouses: warehouses,
		items:      items,
		custPerD:   custPerD,
	}
	// Warehouse and district keys fill one leaf each, so those trees never
	// split and take no arena page here: loading them apart from the
	// customers they interleave with in the spec's order leaves every
	// page where it was.
	for w := range warehouses {
		t.warehouse.Insert(w, nil)
	}
	for d := range warehouses * tpccDistrictsPerW {
		t.district.Insert(d, nil)
	}
	// Customer keys (custKey) are one contiguous run: append it between
	// splits, and take each key that splits through Insert.
	customers := warehouses * tpccDistrictsPerW * custPerD
	for c := uint64(0); c < customers; {
		if k := min(customers-c, uint64(t.customer.tailRoom())); k > 0 {
			t.customer.appendRun(c, int(k), 1, 1)
			c += k
		} else {
			t.customer.Insert(c, nil)
			c++
		}
	}
	// Stock's four runs, one per warehouse, interleave and insert
	// mid-tree, so every item and stock row takes Insert.
	for i := uint64(0); i < items; i++ {
		t.item.Insert(i, nil)
		for w := uint64(0); w < warehouses; w++ {
			t.stock.Insert(t.stockKey(w, i), nil)
		}
	}
	rng := newRNG(cfg, 0x79cc)
	// Each row draws a payload no tree stores. Skipping the draws in one
	// step leaves the generator where one draw per row would, which fixes
	// the stream the samplers' seeds and every job's operations are taken
	// from.
	rng.Skip(warehouses*(1+tpccDistrictsPerW) + customers + items*(1+warehouses))
	// Customer and item keys are contiguous; stock spreads each hot item
	// over one leaf range per warehouse.
	t.custZipf = newSampler(cfg, rng, customers, hotPageBudget(cfg)*20)
	t.itemZipf = newSampler(cfg, rng, items, hotPageBudget(cfg)*20)
	t.rng = rng
	return t
}

func (t *TPCC) custKey(w, d, c uint64) uint64 {
	return (w*tpccDistrictsPerW+d)*t.custPerD + c
}

func (t *TPCC) stockKey(w, i uint64) uint64 { return w*t.items + i }

// Name implements Workload.
func (t *TPCC) Name() string { return "tpcc" }

// DatasetPages implements Workload.
func (t *TPCC) DatasetPages() uint64 { return t.arena.Pages() }

// Items returns the item-table cardinality, for tests.
func (t *TPCC) Items() uint64 { return t.items }

// NewJobSteps runs one transaction: 50% NewOrder, 50% Payment (the paper's
// pair; the spec's full mix weights NewOrder+Payment at ~88%).
// The trace is written into buf.
func (t *TPCC) NewJobSteps(buf []Step) []Step {
	// TPC-C rows carry far more computation per access (pricing, tax,
	// string handling); triple the per-access compute.
	t.jobTr.Reset(t.cfg.ComputePerAccessNs*3, buf)
	tr := &t.jobTr
	if t.rng.Float64() < 0.5 {
		t.newOrder(tr)
	} else {
		t.payment(tr)
	}
	return tr.Take()
}

// newOrder is the TPC-C NewOrder transaction.
func (t *TPCC) newOrder(tr *Tracer) {
	w := uint64(t.rng.Intn(int(t.warehouses)))
	d := uint64(t.rng.Intn(tpccDistrictsPerW))
	cust := t.custZipf.Next()

	t.warehouse.Get(w, tr)
	// District read-modify-write: next_o_id allocation. Each update draws
	// its new row payload, unstored, so later operations take the same
	// draws.
	t.rng.Uint64()
	t.district.Update(w*tpccDistrictsPerW+d, tr)
	t.customer.Get(cust%(t.warehouses*tpccDistrictsPerW*t.custPerD), tr)

	t.nextOrder++
	t.orders.Insert(t.nextOrder, tr)

	lines := 5 + t.rng.Intn(tpccOLPerOrder+1) // 5..15 per spec
	for l := 0; l < lines; l++ {
		item := t.itemZipf.Next()
		t.item.Get(item, tr)
		t.rng.Uint64()
		t.stock.Update(t.stockKey(w, item), tr)
		t.nextOL++
		t.orderLines.Insert(t.nextOL, tr)
		tr.Compute(t.cfg.ComputePerAccessNs) // pricing arithmetic
	}
}

// payment is the TPC-C Payment transaction.
func (t *TPCC) payment(tr *Tracer) {
	w := uint64(t.rng.Intn(int(t.warehouses)))
	d := uint64(t.rng.Intn(tpccDistrictsPerW))
	cust := t.custZipf.Next() % (t.warehouses * tpccDistrictsPerW * t.custPerD)

	// Each update draws its new row payload, unstored, as newOrder does.
	t.rng.Uint64()
	t.warehouse.Update(w, tr)
	t.rng.Uint64()
	t.district.Update(w*tpccDistrictsPerW+d, tr)
	t.rng.Uint64()
	t.customer.Update(cust, tr)
}
