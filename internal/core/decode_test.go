package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"waycache/internal/access"
)

// fillLeaves sets every JSON-visible leaf under v to a distinct non-zero
// value (counting from *n), and the policies to valid non-zero ones. A
// leaf of a kind it does not know fails the test, so a new field cannot
// slip past TestDecodeResultCoversEveryField unfilled.
func fillLeaves(t *testing.T, v reflect.Value, n *int) {
	switch p := v.Addr().Interface().(type) {
	case *access.DPolicy:
		*p = access.DWayPredMRU
		return
	case *access.IPolicy:
		*p = access.IWayPred
		return
	}
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() && f.Tag.Get("json") != "-" {
				fillLeaves(t, v.Field(i), n)
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillLeaves(t, v.Index(i), n)
		}
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n) * 1_000_003)
	case reflect.Float64:
		v.SetFloat(float64(*n) / 3)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	default:
		t.Fatalf("fillLeaves: no value for a %s", v.Type())
	}
}

// TestDecodeResultCoversEveryField: the reader has a case for every field
// of Result and of every struct inside it. A field without one would be
// an unknown key that folds to a field name, which the reader leaves to
// encoding/json, so the reader itself must accept the payload.
func TestDecodeResultCoversEveryField(t *testing.T) {
	var r Result
	n := 0
	fillLeaves(t, reflect.ValueOf(&r).Elem(), &n)
	data, err := EncodeResult(&r)
	if err != nil {
		t.Fatalf("EncodeResult: %v", err)
	}
	want := r
	want.Config = r.Config.Canonical()
	var got Result
	if !decodeResult(data, &got) {
		t.Fatalf("the reader left a canonical payload to encoding/json:\n%s", data)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decoded result differs:\n got %+v\nwant %+v", got, want)
	}
}

// TestDecodeResultLegacyPolicyIntegers: records from before policies
// marshalled as names carry the enum integers, and decode to the same
// result as the names.
func TestDecodeResultLegacyPolicyIntegers(t *testing.T) {
	r := *testResult(t)
	r.Config.DPolicy, r.Config.IPolicy = access.DWayPredXOR, access.IWayPred
	named, err := EncodeResult(&r)
	if err != nil {
		t.Fatalf("EncodeResult: %v", err)
	}
	legacy := bytes.Replace(named, []byte(`"DPolicy":"waypred-xor","IPolicy":"waypred"`),
		[]byte(`"DPolicy":3,"IPolicy":1`), 1)
	if bytes.Equal(legacy, named) {
		t.Fatalf("payload lacks the policy names:\n%s", named)
	}
	want, err := DecodeResult(named)
	if err != nil {
		t.Fatalf("DecodeResult(named): %v", err)
	}
	got, err := DecodeResult(legacy)
	if err != nil {
		t.Fatalf("DecodeResult(legacy): %v", err)
	}
	if !reflect.DeepEqual(got, want) || got.Config.DPolicy != access.DWayPredXOR {
		t.Errorf("legacy policies decode to %v/%v, want %v/%v",
			got.Config.DPolicy, got.Config.IPolicy, want.Config.DPolicy, want.Config.IPolicy)
	}
}

// TestDecodeResultAllocs pins what decoding a canonical payload allocates:
// the Result and the benchmark name, which Result and Config share. The
// encoding/json path costs 17, so a payload that falls back to it fails
// here on any host.
func TestDecodeResultAllocs(t *testing.T) {
	data, err := EncodeResult(testResult(t))
	if err != nil {
		t.Fatalf("EncodeResult: %v", err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := DecodeResult(data); err != nil {
			t.Fatal(err)
		}
	}); avg > 2 {
		t.Errorf("DecodeResult allocates %.1f times per canonical payload, want at most 2", avg)
	}
}

// FuzzDecodeResult checks DecodeResult against json.Unmarshal into a
// Result, the decoder whose semantics it promises: both accept or both
// reject every input, and accepted inputs decode to equal values.
func FuzzDecodeResult(f *testing.F) {
	for _, pol := range []access.DPolicy{access.DParallel, access.DWayPredPC, access.DSelDMWayPred, access.DWayPredMRU} {
		r, err := Run(Config{Benchmark: "gcc", Insts: 5_000, DPolicy: pol, IPolicy: access.IWayPred})
		if err != nil {
			f.Fatal(err)
		}
		data, err := EncodeResult(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		var indented bytes.Buffer
		if err := json.Indent(&indented, data, "", " \t"); err != nil {
			f.Fatal(err)
		}
		f.Add(indented.Bytes())
		var fields map[string]json.RawMessage // marshals with its keys sorted
		if err := json.Unmarshal(data, &fields); err != nil {
			f.Fatal(err)
		}
		reordered, err := json.Marshal(fields)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(reordered)
		f.Add(bytes.Replace(data, []byte(`"Config":{`), []byte(`"Config":{"Zz":[{"a":"é"},null],`), 1))
	}
	for _, s := range []string{
		`{"Config":{"Benchmark":"gcc"},"EPI":0.5}`,
		`{"Benchmark":"gcc","Config":{"Benchmark":"gcc","Trace":"a\/b"}}`,
		`{"Bench\u006dark":"g\u0063c","Config":{"Trace":"\ud83d\ude00 \ud800"}}`,
		`{"Power":{"Clock":1e-7,"Frontend":1e21,"FU":5e-324,"LSQ":-0,"L2":-0.0e-0},"Pipeline":{"Cycles":-0}}`,
		`{"Power":{"L2":1e400}}`,
		`{"Pipeline":{"Cycles":9223372036854775807,"Committed":-9223372036854775808}}`,
		`{"Pipeline":{"Cycles":9223372036854775808}}`,
		`{"Pipeline":{"Cycles":5.0,"Loads":1e2}}`,
		`{"Power":{"Clock":+1,"L2":0x1p3}}`,
		`{"Config":{"DPolicy":null}}`,
		`{"Config":{"DPolicy":3,"IPolicy":1}}`,
		`{"pipeline":{"CYCLES":3},"Config":{"Inſts":7}}`,
		`{"DStats":{"ByClass":[1,2,3,4,5,6,7]},"DStats":{"ByClass":[8]}}`,
		"{\"Benchmark\":\"g\xffc\"}",
		`{"Config":null,"Benchmark":null,"Pipeline":{"Cycles":null}}`,
		`null`,
		`{"Zz":"\x"}`,
		`{"Zz":"\ug000"}`,
		"{\"Zz\":\"a\tb\",\"Benchmark\":\"g\tc\"}",
		`{"Power":{"Clock":1.}}`,
		`{"Zz":[1.e5]}`,
		`{"Zz":3e}`,
		`{"Benchmark":"gcc"} x`,
		`{"Zz":` + strings.Repeat("[", 10_001) + strings.Repeat("]", 10_001) + `}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeResult(data)
		want := new(Result)
		werr := json.Unmarshal(data, want)
		if (err == nil) != (werr == nil) {
			t.Fatalf("DecodeResult error %v, json.Unmarshal error %v", err, werr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeResult and json.Unmarshal differ:\n got %+v\nwant %+v", got, want)
		}
	})
}
