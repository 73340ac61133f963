package metrics

import (
	"regexp"
	"testing"
)

// TestHashKeyFieldBoundaries pins the promise every store key relies on:
// the separator written after each field keeps adjacent fields from
// aliasing, so moving bytes across a field boundary, or adding an empty
// field, derives a different key.
func TestHashKeyFieldBoundaries(t *testing.T) {
	if a, b := HashKey("a", "bc"), HashKey("ab", "c"); a == b {
		t.Errorf(`HashKey("a","bc") == HashKey("ab","c") == %s`, a)
	}
	keys := map[string][]string{}
	for _, fields := range [][]string{{"a", ""}, {"", "a"}, {"a"}} {
		k := HashKey(fields...)
		if prev, ok := keys[k]; ok {
			t.Errorf("HashKey(%q) == HashKey(%q) == %s", fields, prev, k)
		}
		keys[k] = fields
	}
	hex16 := regexp.MustCompile(`^[0-9a-f]{16}$`)
	for _, fields := range [][]string{nil, {""}, {"a", "bc"}, {"result", "3", "ooo-v1"}} {
		if k := HashKey(fields...); !hex16.MatchString(k) {
			t.Errorf("HashKey(%q) = %q, want 16 lowercase hex digits", fields, k)
		}
	}
}
