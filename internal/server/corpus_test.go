package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"waycache/internal/access"
	"waycache/internal/core"
	"waycache/internal/sweep"
)

// scanCounter is a Backend that counts full enumerations: each one is a
// rebuild of the decoded corpus.
type scanCounter struct {
	*sweep.Memory
	scans atomic.Int64
}

func (b *scanCounter) Scan(fn func(key string, res *core.Result) error) error {
	b.scans.Add(1)
	return b.Memory.Scan(fn)
}

// getBody fetches url and returns its body, failing on any non-200.
func getBody(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	return body, err
}

// TestQueriesFoldNewResultsWithoutRescan checks that once the corpus is
// built, jobs simulating new configurations extend it without another
// scan of the store, while concurrent queries each see every
// configuration whose job had finished before the query was sent.
func TestQueriesFoldNewResultsWithoutRescan(t *testing.T) {
	b := &scanCounter{Memory: sweep.NewMemory()}
	srv := New(Options{Workers: 2, Store: sweep.NewStoreOn(b)})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })

	if _, err := getBody(ts.URL + "/api/v1/results"); err != nil {
		t.Fatal(err)
	}
	if n := b.scans.Load(); n != 1 {
		t.Fatalf("first query made %d scans, want 1", n)
	}

	// Every job opens two configurations no other job shares: the
	// instruction count is unique to it.
	const jobs, perJob = 6, 2
	var (
		mu       sync.Mutex
		finished int // jobs done so far; each adds perJob distinct records
	)
	done := make(chan struct{})
	var queries sync.WaitGroup
	for q := 0; q < 2; q++ {
		queries.Add(1)
		go func(q int) {
			defer queries.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				mu.Lock()
				want := finished * perJob
				mu.Unlock()
				var got int
				if q == 0 {
					body, err := getBody(ts.URL + "/api/v1/results?benchmark=gcc")
					var recs []sweep.Record
					if err == nil {
						err = json.Unmarshal(body, &recs)
					}
					if err != nil {
						t.Error(err)
						return
					}
					got = len(recs)
				} else {
					body, err := getBody(ts.URL + "/api/v1/aggregate?by=dPolicy&metric=cycles")
					var groups []sweep.GroupStat
					if err == nil {
						err = json.Unmarshal(body, &groups)
					}
					if err != nil {
						t.Error(err)
						return
					}
					for _, g := range groups {
						got += g.Count
					}
				}
				if got < want {
					t.Errorf("query %d saw %d records after %d configs had finished", q, got, want)
					return
				}
			}
		}(q)
	}

	for i := 0; i < jobs; i++ {
		st := submit(t, ts.URL, fmt.Sprintf(
			`{"Benchmarks":["gcc"],"DPolicies":["parallel","seldm+waypred"],"DWays":[2],"Insts":%d}`, 3000+8*i))
		pollDone(t, ts.URL, st.ID)
		mu.Lock()
		finished++
		mu.Unlock()
	}
	close(done)
	queries.Wait()

	var stats struct {
		Corpus struct {
			Records int   `json:"records"`
			Rescans int64 `json:"rescans"`
		} `json:"corpus"`
	}
	getJSON(t, ts.URL+"/api/v1/stats", &stats)
	if n := b.scans.Load(); n != 1 || stats.Corpus.Rescans != 1 {
		t.Errorf("%d scans, stats report %d rescans; want the first query's 1 alone", n, stats.Corpus.Rescans)
	}

	// Both endpoints must answer byte for byte what a corpus rebuilt from
	// scratch over the same store answers.
	fresh := New(Options{Workers: 1, Store: sweep.NewStoreOn(b)})
	tsFresh := httptest.NewServer(fresh)
	t.Cleanup(func() { tsFresh.Close(); fresh.Close() })
	for _, path := range []string{"/api/v1/results", "/api/v1/results?format=csv", "/api/v1/aggregate?by=dPolicy&metric=procED"} {
		got, err := getBody(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := getBody(tsFresh.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from a full rebuild:\n got %s\nwant %s", path, got, want)
		}
	}
	getJSON(t, ts.URL+"/api/v1/stats", &stats)
	if stats.Corpus.Records != jobs*perJob {
		t.Errorf("stats report %d corpus records, want %d", stats.Corpus.Records, jobs*perJob)
	}
}

// TestResultsFilterEveryColumn sends each configuration column's query
// parameter through /api/v1/results, with one value and with a comma list
// (k suffixes where the column is an integer: binary for sizes, decimal
// for instruction counts), and checks the records that
// come back against the unfiltered corpus: exactly the records whose
// column holds one of the values, in corpus order.
func TestResultsFilterEveryColumn(t *testing.T) {
	store := sweep.NewStore()
	base := core.Config{Benchmark: "gcc", Insts: 2000}
	variants := []func(*core.Config){
		func(c *core.Config) {},
		func(c *core.Config) { c.Benchmark = "swim" },
		func(c *core.Config) { c.DPolicy = access.DSelDMWayPred },
		func(c *core.Config) { c.IPolicy = access.IWayPred },
		func(c *core.Config) { c.DSize = 8 << 10 },
		func(c *core.Config) { c.DWays = 2 },
		func(c *core.Config) { c.DBlock = 16 },
		func(c *core.Config) { c.ISize = 8 << 10 },
		func(c *core.Config) { c.IWays = 2 },
		func(c *core.Config) { c.IBlock = 16 },
		func(c *core.Config) { c.DLatency = 2 },
		func(c *core.Config) { c.TableSize = 512 },
		func(c *core.Config) { c.VictimSize = 4 },
		func(c *core.Config) { c.SelectiveWays = 2 },
		func(c *core.Config) { c.UsePaperCosts = true },
		func(c *core.Config) { c.Insts = 4000 },
	}
	for _, v := range variants {
		cfg := base
		v(&cfg)
		if _, err := store.Result(cfg); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(Options{Workers: 1, Store: store})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })

	get := func(query string) []sweep.Record {
		t.Helper()
		body, err := getBody(ts.URL + "/api/v1/results?" + query)
		if err != nil {
			t.Fatal(err)
		}
		var recs []sweep.Record
		if err := json.Unmarshal(body, &recs); err != nil {
			t.Fatal(err)
		}
		return recs
	}
	corpus := get("")
	if len(corpus) != len(variants) {
		t.Fatalf("corpus holds %d records, want %d", len(corpus), len(variants))
	}
	itoa := func(v int) string { return fmt.Sprint(v) }
	for _, tc := range []struct {
		query string
		col   func(sweep.Record) string
		want  []string // column values the query selects
	}{
		{"benchmark=swim", func(r sweep.Record) string { return r.Benchmark }, []string{"swim"}},
		{"benchmark=gcc,swim", func(r sweep.Record) string { return r.Benchmark }, []string{"gcc", "swim"}},
		{"dpolicy=seldm%2Bwaypred", func(r sweep.Record) string { return r.DPolicy }, []string{"seldm+waypred"}},
		{"ipolicy=waypred,parallel", func(r sweep.Record) string { return r.IPolicy }, []string{"waypred", "parallel"}},
		{"dsize=8k", func(r sweep.Record) string { return itoa(r.DSize) }, []string{"8192"}},
		{"dways=2,4", func(r sweep.Record) string { return itoa(r.DWays) }, []string{"2", "4"}},
		{"dblock=16", func(r sweep.Record) string { return itoa(r.DBlock) }, []string{"16"}},
		{"isize=8k,16k", func(r sweep.Record) string { return itoa(r.ISize) }, []string{"8192", "16384"}},
		{"iways=2", func(r sweep.Record) string { return itoa(r.IWays) }, []string{"2"}},
		{"iblock=16,64", func(r sweep.Record) string { return itoa(r.IBlock) }, []string{"16", "64"}},
		{"dlatency=2", func(r sweep.Record) string { return itoa(r.DLatency) }, []string{"2"}},
		{"tablesize=512,2k", func(r sweep.Record) string { return itoa(r.TableSize) }, []string{"512", "2048"}},
		{"victimsize=4", func(r sweep.Record) string { return itoa(r.VictimSize) }, []string{"4"}},
		{"selectiveways=2", func(r sweep.Record) string { return itoa(r.SelectiveWays) }, []string{"2"}},
		{"papercosts=true", func(r sweep.Record) string { return fmt.Sprint(r.UsePaperCosts) }, []string{"true"}},
		{"papercosts=true,false", func(r sweep.Record) string { return fmt.Sprint(r.UsePaperCosts) }, []string{"true", "false"}},
		{"insts=4k", func(r sweep.Record) string { return fmt.Sprint(r.Insts) }, []string{"4000"}},
		{"insts=2k,4000", func(r sweep.Record) string { return fmt.Sprint(r.Insts) }, []string{"2000", "4000"}},
	} {
		var want []sweep.Record
		for _, r := range corpus {
			if slices.Contains(tc.want, tc.col(r)) {
				want = append(want, r)
			}
		}
		if len(want) == 0 || len(want) == len(corpus) && len(tc.want) == 1 {
			t.Fatalf("%s: corpus gives the filter nothing to tell apart", tc.query)
		}
		if got := get(tc.query); !slices.Equal(got, want) {
			t.Errorf("%s: got %d records, want %d: %+v", tc.query, len(got), len(want), got)
		}
	}
	for _, bad := range []string{"dways=two", "insts=4q", "papercosts=maybe"} {
		if _, resp := fetch(t, ts.URL+"/api/v1/results?"+bad); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}
