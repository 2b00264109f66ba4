package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

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
