package lp

import (
	"context"
	"time"
)

// ResolveBudget is the single deadline-plumbing helper shared by every
// solver layer: it returns the context to poll for cancellation (never nil)
// and that context's deadline (zero when it has none), so the
// branch-and-bound workers and the pivot loop observe exactly one
// time-budget source — the context.
func ResolveBudget(ctx context.Context) (context.Context, time.Time) {
	if ctx == nil {
		ctx = context.Background()
	}
	deadline, _ := ctx.Deadline()
	return ctx, deadline
}

// BudgetExpired reports whether a budget resolved by ResolveBudget is
// exhausted: the context is cancelled or the deadline has passed.
func BudgetExpired(ctx context.Context, deadline time.Time) bool {
	if ctx != nil && ctx.Err() != nil {
		return true
	}
	return !deadline.IsZero() && time.Now().After(deadline)
}
