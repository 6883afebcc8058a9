// Package badallow is a fixture for the mandatory-reason rule: an
// allow comment without a reason is itself diagnosed and suppresses
// nothing. Checked through raw diagnostics (a want comment cannot
// annotate another comment line).
package badallow

import "context"

func mint() context.Context {
	//lint:allow wlvet/ctxparam
	return context.Background()
}
