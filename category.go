package piano

import (
	"context"
	"errors"
)

// categories is the report order of Category's buckets.
var categories = []string{"overloaded", "closed", "stalled", "expired", "internal", "canceled", "insufficient", "other"}

// Categories returns every bucket Category can return, in the order
// reports list them.
func Categories() []string { return append([]string(nil), categories...) }

// Category buckets a failed session by its typed cause (see
// ARCHITECTURE.md "Failure semantics"), for shed and outcome reports.
// Every typed terminal error a Service can hand a client maps to exactly
// one bucket, wrapped or bare; "other" is reserved for errors outside the
// taxonomy, so a known error counted there is a reporting bug.
//
// The reap categories are checked before the context ones: a watchdog
// resolution is reported as what the server decided (stalled/expired),
// never as the bare context error the losing feeder also observed.
func Category(err error) string {
	switch {
	case errors.Is(err, ErrSessionStalled):
		return "stalled"
	case errors.Is(err, ErrSessionExpired):
		return "expired"
	case errors.Is(err, ErrOverloaded):
		return "overloaded"
	case errors.Is(err, ErrClosed):
		return "closed"
	case errors.Is(err, ErrInternal):
		return "internal"
	case errors.Is(err, ErrInsufficientAudio):
		// The transport lost audio the decision would have had to trust;
		// the server refused typed rather than guess. Operators alert on
		// this one separately.
		return "insufficient"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "canceled"
	default:
		return "other"
	}
}
