package core

import (
	"bytes"
	"reflect"
	"testing"

	"waycache/internal/access"
	"waycache/internal/trace"
)

// encodeTestResult simulates one small real run; shared across the encode
// tests so the suite pays for it once.
var encodeTestResult *Result

func testResult(t *testing.T) *Result {
	t.Helper()
	if encodeTestResult == nil {
		r, err := Run(Config{
			Benchmark: "gcc", Insts: 20_000,
			DPolicy: access.DSelDMWayPred, IPolicy: access.IWayPred,
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		encodeTestResult = r
	}
	return encodeTestResult
}

func TestEncodeResultRoundTrip(t *testing.T) {
	r := testResult(t)
	data, err := EncodeResult(r)
	if err != nil {
		t.Fatalf("EncodeResult: %v", err)
	}
	got, err := DecodeResult(data)
	if err != nil {
		t.Fatalf("DecodeResult: %v", err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Errorf("round trip lost information:\n got %+v\nwant %+v", got, r)
	}
}

func TestEncodeResultDeterministic(t *testing.T) {
	r := testResult(t)
	a, err := EncodeResult(r)
	if err != nil {
		t.Fatalf("EncodeResult: %v", err)
	}
	b, err := EncodeResult(r)
	if err != nil {
		t.Fatalf("EncodeResult: %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("two encodes of the same result differ:\n%s\n%s", a, b)
	}
}

func TestEncodeResultCanonicalizesConfig(t *testing.T) {
	// A result whose config still carries zero-valued defaults must encode
	// identically to one with the defaults spelled out: the store keys both
	// under the same canonical key, so their bytes must agree too.
	r := testResult(t)
	sparse := *r
	sparse.Config.DSize = 0 // back to "use the default", the same value
	sparse.Config.TableSize = 0

	a, err := EncodeResult(r)
	if err != nil {
		t.Fatalf("EncodeResult: %v", err)
	}
	b, err := EncodeResult(&sparse)
	if err != nil {
		t.Fatalf("EncodeResult(sparse): %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("zero-default config encodes differently from explicit default")
	}
}

func TestEncodeResultRejectsCustomSource(t *testing.T) {
	r := *testResult(t)
	r.Config.Source = trace.NewLimit(nil, 0)
	if _, err := EncodeResult(&r); err == nil {
		t.Errorf("EncodeResult accepted a custom-Source result")
	}
	if _, err := EncodeResult(nil); err == nil {
		t.Errorf("EncodeResult accepted nil")
	}
}

func TestDecodeResultRejectsGarbage(t *testing.T) {
	if _, err := DecodeResult([]byte("{not json")); err == nil {
		t.Errorf("DecodeResult accepted malformed bytes")
	}
}

// benchResult simulates one small run for the codec benchmarks.
func benchResult(b *testing.B) *Result {
	b.Helper()
	r, err := Run(Config{Benchmark: "gcc", Insts: 20_000, DPolicy: access.DSelDMWayPred})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

func BenchmarkEncodeResult(b *testing.B) {
	r := benchResult(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeResult(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeResult(b *testing.B) {
	data, err := EncodeResult(benchResult(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeResult(data); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDecodeResultToleratesUnknownFields(t *testing.T) {
	// Forward compatibility: a record written by a newer waycache, with
	// extra fields of every JSON kind at the top level and inside a nested
	// struct, decodes to exactly the result the known fields hold.
	r := testResult(t)
	data, err := EncodeResult(r)
	if err != nil {
		t.Fatalf("EncodeResult: %v", err)
	}
	const unknown = `"FutureObject":{"a":[1,{"b":null}],"c":"d"},"FutureArray":[1.5e3,"s",[],{}],` +
		`"FutureString":"tab\t \"quoted\" \u00e9 \\","FutureNull":null,"FutureBool":true,"FutureNumber":-0.5e-3,`
	patched := bytes.Replace(data, []byte(`{"Benchmark"`), []byte(`{`+unknown+`"Benchmark"`), 2)
	if n := bytes.Count(patched, []byte(`"FutureObject"`)); n != 2 {
		t.Fatalf("patched %d objects, want the top level and Config", n)
	}
	got, err := DecodeResult(patched)
	if err != nil {
		t.Fatalf("DecodeResult with unknown fields: %v", err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Errorf("unknown fields changed the decoded result:\n got %+v\nwant %+v", got, r)
	}
	if !decodeResult(patched, new(Result)) {
		t.Errorf("the reader left unknown fields to encoding/json")
	}
}
