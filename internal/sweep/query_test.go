package sweep

import (
	"bytes"
	"encoding/json"
	"net/url"
	"reflect"
	"testing"

	"waycache/internal/access"
)

// rec builds a minimal record for query tests.
func rec(bench, dpol string, dways int, procED float64) Record {
	return Record{
		Benchmark: bench, DPolicy: dpol, IPolicy: "parallel",
		DSize: 16 << 10, DWays: dways, DBlock: 32,
		ISize: 16 << 10, IWays: 4, IBlock: 32,
		DLatency: 1, TableSize: 1024, VictimSize: 16, Insts: 1000,
		ProcED: procED,
	}
}

func queryRecords() []Record {
	return []Record{
		rec("swim", "parallel", 4, 40),
		rec("gcc", "seldm+waypred", 2, 10),
		rec("gcc", "parallel", 4, 30),
		rec("gcc", "parallel", 2, 20),
	}
}

func TestFilterMatch(t *testing.T) {
	recs := queryRecords()
	for _, tc := range []struct {
		name string
		q    url.Values
		want int
	}{
		{"zero filter matches all", nil, 4},
		{"benchmark", url.Values{"benchmark": {"gcc"}}, 3},
		{"policy", url.Values{"dpolicy": {"seldm+waypred"}}, 1},
		{"geometry", url.Values{"dways": {"2"}}, 2},
		{"list", url.Values{"dways": {"2,8"}, "benchmark": {"swim,gcc"}}, 2},
		{"conjunction", url.Values{"benchmark": {"gcc"}, "dpolicy": {"parallel"}, "dways": {"4"}}, 1},
		{"k suffix", url.Values{"dsize": {"16k"}}, 4},
		{"insts", url.Values{"insts": {"999"}}, 0},
		{"no match", url.Values{"benchmark": {"mcf"}}, 0},
	} {
		f, err := ParseFilter(tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := len(f.Apply(recs)); got != tc.want {
			t.Errorf("%s: matched %d records, want %d", tc.name, got, tc.want)
		}
	}
	for _, bad := range []url.Values{{"dways": {"two"}}, {"papercosts": {"maybe"}}, {"insts": {"1x"}}} {
		if _, err := ParseFilter(bad); err == nil {
			t.Errorf("ParseFilter(%v) accepted a malformed value", bad)
		}
	}
}

// TestQueryAllocationFree: the canonical sort and the filter run over the
// whole corpus on every query, so neither may allocate per record.
func TestQueryAllocationFree(t *testing.T) {
	recs := queryRecords()
	f, err := ParseFilter(url.Values{"benchmark": {"gcc"}, "dways": {"2,4"}, "papercosts": {"false"}})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if avg := testing.AllocsPerRun(100, func() {
		for i := range recs {
			if f.Match(&recs[i]) {
				n++
			}
			n += CompareRecords(&recs[i], &recs[(i+1)%len(recs)])
		}
	}); avg != 0 {
		t.Errorf("Match and CompareRecords allocate %.1f times per pass", avg)
	}
}

func TestSortRecordsCanonical(t *testing.T) {
	recs := queryRecords()
	SortRecords(recs)
	var got []string
	for _, r := range recs {
		got = append(got, r.Benchmark+"/"+r.DPolicy+"/"+itoa(r.DWays))
	}
	want := []string{
		"gcc/parallel/2", "gcc/parallel/4", "gcc/seldm+waypred/2", "swim/parallel/4",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sorted order = %v, want %v", got, want)
	}
}

func itoa(v int) string {
	return string(rune('0' + v))
}

func TestAggregate(t *testing.T) {
	stats, err := Aggregate(queryRecords(), "benchmark", "procED")
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	want := []GroupStat{
		{Group: "gcc", Count: 3, Mean: 20, Min: 10, Max: 30},
		{Group: "swim", Count: 1, Mean: 40, Min: 40, Max: 40},
	}
	if !reflect.DeepEqual(stats, want) {
		t.Errorf("Aggregate = %+v, want %+v", stats, want)
	}

	if _, err := Aggregate(queryRecords(), "nope", "procED"); err == nil {
		t.Errorf("Aggregate accepted an unknown dimension")
	}
	if _, err := Aggregate(queryRecords(), "benchmark", "nope"); err == nil {
		t.Errorf("Aggregate accepted an unknown metric")
	}

	// Every advertised dimension and metric must resolve.
	for _, dim := range Dimensions() {
		if _, err := Aggregate(queryRecords(), dim, "cycles"); err != nil {
			t.Errorf("dimension %q: %v", dim, err)
		}
	}
	for _, m := range Metrics() {
		if _, err := Aggregate(queryRecords(), "benchmark", m); err != nil {
			t.Errorf("metric %q: %v", m, err)
		}
	}
}

func TestGroupStatWriters(t *testing.T) {
	stats, err := Aggregate(queryRecords(), "dPolicy", "procED")
	if err != nil {
		t.Fatal(err)
	}
	var jb bytes.Buffer
	if err := WriteGroupStatsJSON(&jb, stats); err != nil {
		t.Fatal(err)
	}
	var decoded []GroupStat
	if err := json.Unmarshal(jb.Bytes(), &decoded); err != nil {
		t.Fatalf("JSON output does not parse: %v", err)
	}
	if !reflect.DeepEqual(decoded, stats) {
		t.Errorf("JSON round trip differs")
	}

	var cb bytes.Buffer
	if err := WriteGroupStatsCSV(&cb, "dPolicy", stats); err != nil {
		t.Fatal(err)
	}
	wantHeader := "dPolicy,count,mean,min,max\n"
	if !bytes.HasPrefix(cb.Bytes(), []byte(wantHeader)) {
		t.Errorf("CSV header = %q, want prefix %q", cb.String(), wantHeader)
	}
}

func TestGridSizeSaturates(t *testing.T) {
	// A grid whose cartesian product would overflow must saturate at
	// SizeCap, not wrap: size limits (like the HTTP service's per-job
	// bound) compare against Size and would otherwise be bypassed.
	big := make([]int, 1024)
	g := Grid{DSizes: big, DWays: big, DBlocks: big, ISizes: big, IWays: big, IBlocks: big, DLatencies: big}
	if got := g.Size(); got != SizeCap {
		t.Errorf("overflowing grid Size() = %d, want SizeCap %d", got, SizeCap)
	}
	small := Grid{DWays: []int{1, 2, 4}}
	if got := small.Size(); got != 3 {
		t.Errorf("small grid Size() = %d, want 3", got)
	}
}

func TestGridJSONPolicyNames(t *testing.T) {
	// Grid submissions (the HTTP API body) accept policy names...
	var g Grid
	body := `{"Benchmarks":["gcc"],"DPolicies":["parallel","seldm+waypred"],"IPolicies":["waypred"],"DWays":[2,4]}`
	if err := json.Unmarshal([]byte(body), &g); err != nil {
		t.Fatalf("unmarshal named policies: %v", err)
	}
	if !reflect.DeepEqual(g.DPolicies, []access.DPolicy{access.DParallel, access.DSelDMWayPred}) {
		t.Errorf("DPolicies = %v", g.DPolicies)
	}
	if !reflect.DeepEqual(g.IPolicies, []access.IPolicy{access.IWayPred}) {
		t.Errorf("IPolicies = %v", g.IPolicies)
	}

	// ...and legacy integer enum values.
	if err := json.Unmarshal([]byte(`{"DPolicies":[0,5]}`), &g); err != nil {
		t.Fatalf("unmarshal integer policies: %v", err)
	}
	if !reflect.DeepEqual(g.DPolicies, []access.DPolicy{access.DParallel, access.DSelDMWayPred}) {
		t.Errorf("integer DPolicies = %v", g.DPolicies)
	}

	// Unknown names are rejected, not zeroed.
	if err := json.Unmarshal([]byte(`{"DPolicies":["bogus"]}`), &g); err == nil {
		t.Errorf("unmarshal accepted an unknown policy name")
	}

	// Marshal emits names, keeping submitted grids human-readable in job
	// listings.
	data, err := json.Marshal(Grid{DPolicies: []access.DPolicy{access.DSelDMWayPred}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"seldm+waypred"`)) {
		t.Errorf("marshaled grid %s does not name its policy", data)
	}
}
