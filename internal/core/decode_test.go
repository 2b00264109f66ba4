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

// TestDecodeResultCoversEveryField: the reader reads every field of Result
// and of every struct inside it. A field without a reader would show as a
// positional mismatch, which the reader leaves to encoding/json, so the
// reader itself must accept the payload.
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
// the Result, the benchmark name that Result and Config share, and the
// trace string when there is one. It covers every policy pair and both
// kinds of trace the engine writes. The encoding/json path costs 17, so a
// policy name or trace string that falls back to it fails here on any host.
func TestDecodeResultAllocs(t *testing.T) {
	var cases []Config
	for d := access.DParallel; d <= access.DWayPredMRU; d++ {
		for i := access.IParallel; i <= access.IWayPred; i++ {
			c := testResult(t).Config
			c.DPolicy, c.IPolicy = d, i
			cases = append(cases, c)
		}
	}
	for _, tr := range []string{"trace://" + strings.Repeat("0123456789abcdef", 4), "traces/gcc-20k.wct"} {
		c := testResult(t).Config
		c.Trace = tr
		cases = append(cases, c)
	}
	for _, c := range cases {
		r := *testResult(t)
		r.Config = c
		data, err := EncodeResult(&r)
		if err != nil {
			t.Fatalf("EncodeResult: %v", err)
		}
		want := 2.0
		if c.Trace != "" {
			want++
		}
		if avg := testing.AllocsPerRun(100, func() {
			if _, err := DecodeResult(data); err != nil {
				t.Fatal(err)
			}
		}); avg > want {
			t.Errorf("DecodeResult allocates %.1f times for %v/%v trace %q, want at most %.0f",
				avg, c.DPolicy, c.IPolicy, c.Trace, want)
		}
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
	// Schema drift: records from an older writer lack a field, records from
	// a newer one carry an extra field, and a trace path holding '&' is
	// written escaped. All of them are json's to decode.
	data, err := EncodeResult(testResult(f))
	if err != nil {
		f.Fatal(err)
	}
	for _, cut := range []string{`,"Power":{`, `,"Core":{`} {
		i := bytes.Index(data, []byte(cut))
		if i < 0 {
			f.Fatalf("payload lacks %s", cut)
		}
		j := i + bytes.IndexByte(data[i:], '}') + 1
		f.Add(append(data[:i:i], data[j:]...))
	}
	f.Add(append(data[:len(data)-1:len(data)-1], `,"Future":{"a":[1]}}`...))
	newerConfig := bytes.Replace(data, []byte(`}},"Pipeline":`), []byte(`},"Future":"x"},"Pipeline":`), 1)
	if bytes.Equal(newerConfig, data) {
		f.Fatalf("payload lacks the end of Config:\n%s", data)
	}
	f.Add(newerConfig)
	r := *testResult(f)
	r.Config.Trace = "traces/a&b.wct"
	escaped, err := EncodeResult(&r)
	if err != nil || !bytes.Contains(escaped, []byte(`\u0026`)) {
		f.Fatalf("EncodeResult did not escape '&': %v\n%s", err, escaped)
	}
	f.Add(escaped)
	// A canonical payload with one value changed: the reader's own checks
	// on a value in its place, accepted or left to json.
	for _, v := range [][2]string{
		{"Cycles", "5.0"}, {"Cycles", "1e2"}, {"Cycles", "+1"}, {"Cycles", "01"}, {"Cycles", "-"},
		{"Cycles", "9223372036854775808"}, {"Cycles", "18446744073709551616"}, {"Cycles", "-9223372036854775808"},
		{"DSize", "9223372036854775807"},
		{"L2", "1e400"}, {"L2", "0x1p3"}, {"L2", "1."}, {"L2", "3e"}, {"L2", "-0.0e-0"},
		{"Benchmark", "\"g\xffc\""}, {"Benchmark", "\"g\tc\""}, {"Benchmark", `"g\u0063c"`}, {"Benchmark", `"g`},
		{"DPolicy", `"nope"`}, {"DPolicy", "null"}, {"DPolicy", "3"},
		{"UsePaperCosts", "true"}, {"UsePaperCosts", "fals"},
	} {
		f.Add(withValue(f, data, v[0], v[1]))
	}
	f.Add(append(data[:len(data):len(data)], " x"...))
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

// withValue returns data with the value of key's first occurrence, which
// must be a number, literal or plain string, replaced by val.
func withValue(tb testing.TB, data []byte, key, val string) []byte {
	i := bytes.Index(data, []byte(`"`+key+`":`))
	if i < 0 {
		tb.Fatalf("payload lacks %s", key)
	}
	i += len(key) + 3
	j := i + bytes.IndexAny(data[i:], ",}")
	return append(append(data[:i:i], val...), data[j:]...)
}
