package piano

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// TestCategoryCoversTypedErrors is the shed-accounting contract: every
// typed terminal error a Service can hand a client maps to exactly one
// report category — wrapped or bare — and "other" is reserved for errors
// outside the taxonomy. A known error landing in "other" is a reporting
// bug, not a new failure mode.
func TestCategoryCoversTypedErrors(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want string
	}{
		{"overloaded", ErrOverloaded, "overloaded"},
		{"overloaded wrapped by retry exhaustion",
			fmt.Errorf("piano: gave up after 4 attempts: %w", ErrOverloaded), "overloaded"},
		{"closed", ErrClosed, "closed"},
		{"stalled", ErrSessionStalled, "stalled"},
		{"expired", ErrSessionExpired, "expired"},
		{"internal", ErrInternal, "internal"},
		{"internal wrapped", fmt.Errorf("piano: %w", ErrInternal), "internal"},
		{"insufficient audio", ErrInsufficientAudio, "insufficient"},
		{"insufficient audio wrapped",
			fmt.Errorf("core: streaming detect (auth role): %w", ErrInsufficientAudio), "insufficient"},
		{"context canceled", context.Canceled, "canceled"},
		{"context deadline", context.DeadlineExceeded, "canceled"},
		{"unknown", errors.New("mystery"), "other"},
	}
	valid := map[string]bool{}
	for _, cat := range Categories() {
		valid[cat] = true
	}
	for _, tc := range cases {
		got := Category(tc.err)
		if got != tc.want {
			t.Errorf("%s: category = %q, want %q", tc.name, got, tc.want)
		}
		if !valid[got] {
			t.Errorf("%s: category %q is not in the report order list", tc.name, got)
		}
		if tc.want != "other" && got == "other" {
			t.Errorf("%s: known typed error leaked into the other bucket", tc.name)
		}
	}
	// Both reap errors must match the category sentinel — the report's
	// stalled/expired split refines ErrSessionReaped, it does not fork it.
	for _, err := range []error{ErrSessionStalled, ErrSessionExpired} {
		if !errors.Is(err, ErrSessionReaped) {
			t.Errorf("%v does not match ErrSessionReaped", err)
		}
	}
}
