package cache

import (
	"testing"
	"testing/quick"

	"waycache/internal/prng"
)

func l1Config() Config {
	return Config{Name: "L1d", SizeBytes: 16 << 10, Ways: 4, BlockBytes: 32}
}

func TestConfigValidate(t *testing.T) {
	good := l1Config()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Name: "zero"},
		{Name: "block", SizeBytes: 16 << 10, Ways: 4, BlockBytes: 33},
		{Name: "div", SizeBytes: 10000, Ways: 4, BlockBytes: 32},
		{Name: "sets", SizeBytes: 24 << 10, Ways: 4, BlockBytes: 32}, // 192 sets
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %q accepted, want error", c.Name)
		}
	}
}

func TestGeometryDerivation(t *testing.T) {
	c := New(l1Config())
	if c.NumSets() != 128 {
		t.Fatalf("16K/4w/32B should have 128 sets, got %d", c.NumSets())
	}
	addr := uint64(0x12345678)
	if c.BlockAddr(addr) != addr&^31 {
		t.Errorf("BlockAddr(%#x) = %#x", addr, c.BlockAddr(addr))
	}
	if c.Index(addr) != int((addr>>5)&127) {
		t.Errorf("Index(%#x) = %d", addr, c.Index(addr))
	}
	if c.Tag(addr) != addr>>12 {
		t.Errorf("Tag(%#x) = %#x", addr, c.Tag(addr))
	}
	if c.DMWay(addr) != int((addr>>12)&3) {
		t.Errorf("DMWay(%#x) = %d", addr, c.DMWay(addr))
	}
}

func TestMissThenHit(t *testing.T) {
	c := New(l1Config())
	hit, _ := c.Access(0x1000, false)
	if hit {
		t.Fatal("first access hit an empty cache")
	}
	hit, _ = c.Access(0x1008, false) // same block
	if !hit {
		t.Fatal("second access to same block missed")
	}
	st := c.Stats()
	if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := New(l1Config())
	// Five distinct blocks mapping to set 0: index bits are addr[11:5].
	mk := func(i uint64) uint64 { return i << 12 } // same index 0, different tags
	for i := uint64(0); i < 4; i++ {
		c.Access(mk(i), false)
	}
	// Touch block 0 to make block 1 the LRU.
	c.Access(mk(0), false)
	// Fill a fifth block: block 1 must be evicted.
	_, ev := c.Access(mk(4), false)
	if !ev.Valid || ev.Addr != mk(1) {
		t.Fatalf("evicted %+v, want block %#x", ev, mk(1))
	}
	if c.Contains(mk(1)) {
		t.Fatal("evicted block still resident")
	}
	for _, b := range []uint64{mk(0), mk(2), mk(3), mk(4)} {
		if !c.Contains(b) {
			t.Fatalf("block %#x should be resident", b)
		}
	}
}

func TestDirtyEviction(t *testing.T) {
	c := New(l1Config())
	c.Access(0x0<<12, true) // store miss: line starts dirty
	for i := uint64(1); i <= 4; i++ {
		_, ev := c.Access(i<<12, false)
		if i == 4 {
			if !ev.Valid || !ev.Dirty {
				t.Fatalf("eviction of dirty block reported %+v", ev)
			}
		}
	}
}

func TestProbeDoesNotDisturbState(t *testing.T) {
	c := New(l1Config())
	c.Access(0x1000, false)
	before := c.Stats()
	for i := 0; i < 10; i++ {
		if _, hit := c.Probe(0x1000); !hit {
			t.Fatal("probe missed resident block")
		}
		if _, hit := c.Probe(0x99999000); hit {
			t.Fatal("probe hit absent block")
		}
	}
	if c.Stats() != before {
		t.Fatal("Probe changed statistics")
	}
}

func TestTouchPanicsOnWrongWay(t *testing.T) {
	c := New(l1Config())
	c.Access(0x1000, false)
	way, _ := c.Probe(0x1000)
	defer func() {
		if recover() == nil {
			t.Fatal("Touch with wrong way did not panic")
		}
	}()
	c.Touch(0x1000, (way+1)%4, false)
}

func TestDMPlacement(t *testing.T) {
	c := New(l1Config())
	addr := uint64(7) << 12 // tag 7 -> DM way 3
	ev, way := c.Fill(addr, true, false)
	if ev.Valid {
		t.Fatalf("fill into empty cache evicted %+v", ev)
	}
	if want := c.DMWay(addr); way != want {
		t.Fatalf("DM fill chose way %d, want %d", way, want)
	}
	if !c.WasDMPlaced(addr, way) {
		t.Fatal("line not marked DM-placed")
	}
	// An LRU fill of a different block must not mark DM placement.
	addr2 := uint64(8) << 12
	_, way2 := c.Fill(addr2, false, false)
	if c.WasDMPlaced(addr2, way2) {
		t.Fatal("LRU fill marked as DM-placed")
	}
}

func TestDMPlacementEvictsOccupant(t *testing.T) {
	c := New(l1Config())
	// Fill all 4 ways of set 0 via LRU.
	for i := uint64(0); i < 4; i++ {
		c.Fill(i<<12, false, false)
	}
	// DM-fill a block whose DM way is 2 (tag 6 & 3 == 2).
	addr := uint64(6) << 12
	ev, way := c.Fill(addr, true, false)
	if way != 2 {
		t.Fatalf("DM fill chose way %d, want 2", way)
	}
	if !ev.Valid {
		t.Fatal("DM fill into a full set must evict")
	}
	if !c.Contains(addr) {
		t.Fatal("DM-filled block not resident")
	}
}

func TestAccessSequenceInvariants(t *testing.T) {
	c := New(l1Config())
	r := prng.New(99)
	for i := 0; i < 200000; i++ {
		addr := r.Uint64() % (1 << 20)
		switch r.Intn(3) {
		case 0:
			c.Access(addr, r.Bool(0.3))
		case 1:
			if way, hit := c.Probe(addr); hit {
				c.Touch(addr, way, false)
			} else {
				c.Fill(addr, r.Bool(0.5), false)
			}
		case 2:
			c.Contains(addr)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if c.ResidentBlocks() > c.NumSets()*c.Ways() {
		t.Fatal("more resident blocks than capacity")
	}
}

func TestInvariantsProperty(t *testing.T) {
	// Property: after any access sequence, a just-accessed block is
	// resident and invariants hold.
	cfg := Config{Name: "p", SizeBytes: 1 << 10, Ways: 2, BlockBytes: 32}
	f := func(addrs []uint16, writes []bool) bool {
		c := New(cfg)
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			c.Access(uint64(a), w)
			if !c.Contains(uint64(a)) {
				return false
			}
		}
		return c.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectMappedCache(t *testing.T) {
	c := New(Config{Name: "dm", SizeBytes: 16 << 10, Ways: 1, BlockBytes: 32})
	if c.NumSets() != 512 {
		t.Fatalf("sets = %d", c.NumSets())
	}
	// Two blocks with the same index always conflict.
	a, b := uint64(0x0000), uint64(0x4000)
	if c.Index(a) != c.Index(b) {
		t.Fatal("test addresses should share an index")
	}
	c.Access(a, false)
	_, ev := c.Access(b, false)
	if !ev.Valid || ev.Addr != a {
		t.Fatalf("direct-mapped conflict did not evict %#x: %+v", a, ev)
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Fatal("empty stats should report 0 miss rate")
	}
	s = Stats{Accesses: 10, Misses: 3}
	if s.MissRate() != 0.3 {
		t.Fatalf("MissRate = %v", s.MissRate())
	}
}

func TestDMWayMaskMatchesModulo(t *testing.T) {
	// DMWay has a mask fast path for power-of-two associativity and a
	// modulo fallback for the partial-ways geometries of selective cache
	// ways; both must implement "low tag bits select the way".
	rng := prng.New(0xd31c7)
	for _, ways := range []int{1, 2, 3, 4, 5, 8, 16} {
		c := New(Config{
			Name: "dm", SizeBytes: 128 * 32 * ways, Ways: ways, BlockBytes: 32,
		})
		for i := 0; i < 2000; i++ {
			addr := rng.Uint64()
			want := int(c.Tag(addr) % uint64(ways))
			if got := c.DMWay(addr); got != want {
				t.Fatalf("ways=%d DMWay(%#x) = %d, want %d", ways, addr, got, want)
			}
		}
	}
}

func TestPrecomputedMasksMatchGeometry(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "a", SizeBytes: 16 << 10, Ways: 4, BlockBytes: 32},
		{Name: "b", SizeBytes: 8 << 10, Ways: 1, BlockBytes: 64},
		{Name: "c", SizeBytes: 3 << 10, Ways: 3, BlockBytes: 16},
	} {
		c := New(cfg)
		rng := prng.New(uint64(cfg.Ways))
		for i := 0; i < 2000; i++ {
			addr := rng.Uint64()
			if got, want := c.BlockAddr(addr), addr/uint64(cfg.BlockBytes)*uint64(cfg.BlockBytes); got != want {
				t.Fatalf("%s: BlockAddr(%#x) = %#x, want %#x", cfg.Name, addr, got, want)
			}
			if got, want := c.Index(addr), int(addr/uint64(cfg.BlockBytes)%uint64(c.NumSets())); got != want {
				t.Fatalf("%s: Index(%#x) = %d, want %d", cfg.Name, addr, got, want)
			}
			if got, want := c.Tag(addr), addr/uint64(cfg.BlockBytes)/uint64(c.NumSets()); got != want {
				t.Fatalf("%s: Tag(%#x) = %#x, want %#x", cfg.Name, addr, got, want)
			}
		}
	}
}
