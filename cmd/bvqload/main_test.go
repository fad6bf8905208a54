package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzStreamTrailer: no input panics, and streamTrailer accepts a stream
// exactly when its last non-blank line is a trailer with no error. The
// committed corpus is bvqd streams: whole, error-trailed and cut.
func FuzzStreamTrailer(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ok, err := streamTrailer(bytes.NewReader(data))
		if err != nil {
			if len(data) < 1<<20 { // only a line past the reader's 1 MiB cap fails
				t.Fatalf("read error on %d bytes: %v", len(data), err)
			}
			return
		}
		var last string
		for _, line := range strings.Split(string(data), "\n") {
			if line = strings.TrimSpace(line); line != "" {
				last = line
			}
		}
		var trailer struct {
			Trailer bool   `json:"trailer"`
			Error   string `json:"error"`
		}
		want := json.Unmarshal([]byte(last), &trailer) == nil && trailer.Trailer && trailer.Error == ""
		if ok != want {
			t.Fatalf("accepted %v, want %v; last line %q", ok, want, last)
		}
	})
}
