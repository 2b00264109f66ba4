package core

// Stable Result serialization: the byte encoding the on-disk result store
// (internal/resultdb) persists and every future reader must keep decoding.
// The encoding is canonical JSON of the Result struct with the Config
// canonicalized first, so encoding the same simulation always yields the
// same bytes:
//
//   - Go's encoding/json emits struct fields in declaration order and
//     renders floats in their shortest round-trippable form, so the bytes
//     are a pure function of the Result's values.
//   - Config.Canonical() materializes every default before encoding, so a
//     zero-valued field and its explicit default encode identically — the
//     same equivalence Config.Key establishes for memoization.
//
// JSON (rather than a packed binary form like the .wct trace format) keeps
// the records self-describing: fields added to Result in a future version
// decode as their zero value from old records, and old readers ignore
// fields they do not know. Container-level versioning (magic + version
// byte, checksums) is the store's job, not the payload's.
//
// encoding/json defines the format in both directions. EncodeResult is
// json.Marshal itself. DecodeResult reads exactly the canonical form
// EncodeResult writes with a hand-written positional reader (decode.go),
// because a server decodes every stored result whenever it rebuilds its
// corpus. Everything else, records from older or newer versions included,
// goes to json.Unmarshal. FuzzDecodeResult holds DecodeResult to
// json.Unmarshal as its oracle.

import (
	"encoding/json"
	"fmt"
)

// EncodeResult renders r into its canonical, stable byte encoding. Two
// results of the same simulation encode byte-identically. Results driven
// by a custom trace Source cannot be encoded (their behaviour is not
// captured by the config, mirroring Config.Key's refusal to key them).
func EncodeResult(r *Result) ([]byte, error) {
	if r == nil {
		return nil, fmt.Errorf("core: cannot encode nil result")
	}
	if r.Config.Source != nil {
		return nil, fmt.Errorf("core: result of a custom-Source run has no canonical encoding")
	}
	rr := *r
	rr.Config = rr.Config.Canonical()
	data, err := json.Marshal(&rr)
	if err != nil {
		return nil, fmt.Errorf("core: encoding result: %w", err)
	}
	return data, nil
}

// DecodeResult decodes bytes produced by EncodeResult into the Result
// json.Unmarshal would give. A reflection-free reader (see decode.go)
// reads exactly the canonical form EncodeResult writes. Everything else
// goes to encoding/json, which supplies every decoding error: records
// written by a newer waycache (unknown fields are skipped) or an older one
// (absent fields decode as zero values), legacy integer policies and
// escaped strings all decode, only slower.
func DecodeResult(data []byte) (*Result, error) {
	r := new(Result)
	if decodeResult(data, r) {
		return r, nil
	}
	*r = Result{}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("core: decoding result: %w", err)
	}
	return r, nil
}
