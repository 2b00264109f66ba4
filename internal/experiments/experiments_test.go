package experiments

import (
	"strings"
	"testing"

	"waycache/internal/access"
	"waycache/internal/core"
)

// fastOpts keeps experiment tests quick: three representative benchmarks,
// short runs.
func fastOpts() Options {
	return Options{Insts: 120_000, Benchmarks: []string{"gcc", "swim", "fpppp"}}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table3", "table4", "table5", "fig4", "fig5", "fig6",
		"fig7", "fig8", "fig9", "fig10", "fig11",
		"ablation-tables", "ablation-victim", "related"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(reg), len(want))
	}
	for i, name := range want {
		if reg[i].Name != name {
			t.Errorf("registry[%d] = %s, want %s", i, reg[i].Name, name)
		}
	}
	if _, err := ByName("fig4"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("fig99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTable3Shape(t *testing.T) {
	rep := Table3(fastOpts())
	if rep.Summary["oneWay"] > 0.25 || rep.Summary["oneWay"] < 0.15 {
		t.Errorf("one-way read %v out of Table 3 band", rep.Summary["oneWay"])
	}
	out := rep.Tables[0].String()
	if !strings.Contains(out, "parallel access") {
		t.Error("table missing parallel access row")
	}
}

func TestTable4Shape(t *testing.T) {
	rep := Table4(fastOpts())
	// Direct-mapped must be worse than 4-way for gcc, and swim must invert.
	if rep.Summary["dm_gcc"] <= rep.Summary["sa_gcc"] {
		t.Errorf("gcc: DM %v not worse than SA %v", rep.Summary["dm_gcc"], rep.Summary["sa_gcc"])
	}
	if rep.Summary["sa_swim"] < rep.Summary["dm_swim"]-0.01 {
		t.Errorf("swim: SA %v should not beat DM %v", rep.Summary["sa_swim"], rep.Summary["dm_swim"])
	}
}

func TestFigure4Shape(t *testing.T) {
	rep := Figure4(fastOpts())
	if rep.Summary["avgRelED"] > 0.5 {
		t.Errorf("sequential avg relative E-D %v: savings too small", rep.Summary["avgRelED"])
	}
	if rep.Summary["avgPerfLoss"] <= 0 {
		t.Errorf("sequential avg perf loss %v should be positive", rep.Summary["avgPerfLoss"])
	}
}

func TestFigure5Shape(t *testing.T) {
	rep := Figure5(fastOpts())
	if rep.Summary["xorAcc"] < rep.Summary["pcAcc"]-0.03 {
		t.Errorf("XOR accuracy %v below PC %v", rep.Summary["xorAcc"], rep.Summary["pcAcc"])
	}
}

func TestFigure6Shape(t *testing.T) {
	rep := Figure6(fastOpts())
	// SelDM+sequential saves at least as much energy-delay as SelDM+parallel.
	if rep.Summary["sdmSeqED"] > rep.Summary["sdmParED"]+0.02 {
		t.Errorf("SelDM+seq E-D %v worse than SelDM+parallel %v",
			rep.Summary["sdmSeqED"], rep.Summary["sdmParED"])
	}
	if rep.Summary["dmFrac"] < 0.4 {
		t.Errorf("direct-mapped fraction %v too low", rep.Summary["dmFrac"])
	}
	if len(rep.Tables) != 2 {
		t.Fatal("figure 6 should produce the E-D table and the breakdown")
	}
}

func TestFigure8Trend(t *testing.T) {
	rep := Figure8(fastOpts())
	if !(rep.Summary["ed8"] < rep.Summary["ed4"] && rep.Summary["ed4"] < rep.Summary["ed2"]) {
		t.Errorf("E-D not monotone in associativity: 2w %v, 4w %v, 8w %v",
			rep.Summary["ed2"], rep.Summary["ed4"], rep.Summary["ed8"])
	}
}

func TestFigure10Trend(t *testing.T) {
	rep := Figure10(fastOpts())
	if !(rep.Summary["ed8"] < rep.Summary["ed4"] && rep.Summary["ed4"] < rep.Summary["ed2"]) {
		t.Errorf("i-cache E-D not monotone in associativity: %v / %v / %v",
			rep.Summary["ed2"], rep.Summary["ed4"], rep.Summary["ed8"])
	}
	if rep.Summary["avgAccuracy"] < 0.8 {
		t.Errorf("i-cache way accuracy %v too low", rep.Summary["avgAccuracy"])
	}
}

func TestFigure11Bounds(t *testing.T) {
	rep := Figure11(fastOpts())
	ed, perfect := rep.Summary["relED"], rep.Summary["perfectED"]
	if ed >= 1 {
		t.Errorf("overall relative E-D %v shows no savings", ed)
	}
	if perfect > ed+1e-9 {
		t.Errorf("perfect bound %v worse than technique %v", perfect, ed)
	}
	if s := rep.Summary["l1Share"]; s < 0.05 || s > 0.25 {
		t.Errorf("baseline L1 share %v implausible", s)
	}
}

func TestReportRendering(t *testing.T) {
	rep := Table3(fastOpts())
	var sb strings.Builder
	if _, err := rep.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Table 3") {
		t.Error("render missing title")
	}
}

func TestAblationTableSizeInsensitive(t *testing.T) {
	rep := AblationTableSize(fastOpts())
	// The paper: 1024 -> 2048 changes results by <1%. Allow 2 points of
	// E-D drift on our short runs.
	for _, pol := range []string{"waypred-pc", "seldm+waypred"} {
		e1024 := rep.Summary[pol+"_1024"]
		e2048 := rep.Summary[pol+"_2048"]
		if diff := e2048 - e1024; diff > 0.02 || diff < -0.02 {
			t.Errorf("%s: 1024->2048 entry table moved E-D by %v", pol, diff)
		}
	}
}

func TestAblationVictimListPlateau(t *testing.T) {
	rep := AblationVictimList(fastOpts())
	// 16 -> 64 entries should be a plateau; 4 entries may degrade (more
	// mapping mispredictions) but never improve E-D materially.
	if diff := rep.Summary["ed_64"] - rep.Summary["ed_16"]; diff > 0.02 || diff < -0.02 {
		t.Errorf("victim list 16->64 moved E-D by %v; expected plateau", diff)
	}
	// A 4-entry list ages conflict records out before the threshold is
	// reached, so conflicting blocks keep being DM-placed and ping-pong as
	// misses: energy-delay must not *improve* over the 16-entry list.
	if rep.Summary["ed_4"] < rep.Summary["ed_16"]-0.02 {
		t.Errorf("4-entry victim list E-D %v materially better than 16-entry %v",
			rep.Summary["ed_4"], rep.Summary["ed_16"])
	}
}

func TestRelatedWorkOrdering(t *testing.T) {
	rep := Related(fastOpts())
	// Selective-DM must beat selective cache ways on energy-delay: the
	// paper's Section 5 comparison.
	if rep.Summary["sdmED"] >= rep.Summary["selWaysED"] {
		t.Errorf("SelDM+WP E-D %v not better than selective ways %v",
			rep.Summary["sdmED"], rep.Summary["selWaysED"])
	}
}

func TestRunnerPanicsOnUndeclaredCell(t *testing.T) {
	o := Options{Insts: 20_000, Benchmarks: []string{"gcc"}}
	r := newRunner(o, core.Config{})
	if res := r.run(core.Config{Benchmark: "gcc"}); res == nil {
		t.Fatal("declared cell has no result")
	}
	undeclared := core.Config{Benchmark: "gcc", DPolicy: access.DSequential}
	want := undeclared
	want.Insts = o.Insts
	key, _ := want.Key()
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, key) {
			t.Fatalf("reading an undeclared cell recovered %q, want a panic naming %q", msg, key)
		}
	}()
	r.run(undeclared)
}
