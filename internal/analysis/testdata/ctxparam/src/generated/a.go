// Code generated by fixturegen. DO NOT EDIT.

// Package generated proves the suite skips generated files: the same
// root context that fires in package ctxparam stays silent here, and
// the reason-less allow below draws no needs-a-reason diagnostic.
package generated

import "context"

//lint:allow wlvet/ctxparam
func mint() context.Context {
	return context.Background()
}
