package session

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// This file retains the encoding/json line decoder. It is the spec of
// the wire language: DecodeBatch's fused exact-layout decoder must
// agree with it on every input (FuzzDecodeBatchDiff), and every line
// outside that layout, or invalid, is decoded here. Keep it dumb — its
// value is being obviously what encoding/json does.

// wireEvent is the reflection target for one event line. Pointer
// fields distinguish absent (or null) from zero.
type wireEvent struct {
	U   *int64  `json:"u"`
	K   *string `json:"k"`
	S   *int64  `json:"s"`
	R   *int64  `json:"r"`
	Inj *int64  `json:"inj"`
}

// decodeLineReference strictly decodes one NDJSON line with
// encoding/json: unknown fields and trailing data are errors, keys
// match case-insensitively, the last duplicate wins and null means
// absent.
func decodeLineReference(line []byte) (Event, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var w wireEvent
	if err := dec.Decode(&w); err != nil {
		return Event{}, err
	}
	// One JSON value per line: trailing bytes are a framing error.
	if _, err := dec.Token(); err != io.EOF {
		return Event{}, fmt.Errorf("trailing data after event object")
	}
	var f fields
	if f.hasU = w.U != nil; f.hasU {
		f.u = *w.U
	}
	if f.hasK = w.K != nil; f.hasK {
		f.k = *w.K
	}
	if f.hasS = w.S != nil; f.hasS {
		f.s = *w.S
	}
	if f.hasR = w.R != nil; f.hasR {
		f.r = *w.R
	}
	if f.hasInj = w.Inj != nil; f.hasInj {
		f.inj = *w.Inj
	}
	return validate(f)
}

// decodeBatchReference is DecodeBatch with every line decoded by the
// reference: the oracle of the differential tests and benchmarks.
func decodeBatchReference(r io.Reader, after int64, limit int) ([]Event, error) {
	return decodeBatch(r, after, limit, nil, nil, decodeLineReference)
}
