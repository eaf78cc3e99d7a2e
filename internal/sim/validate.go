package sim

import (
	"net/url"

	"tripwire/internal/browser"
	"tripwire/internal/core"
)

// Validation is the ground-truth check of one burned registration: does an
// account with our credentials actually exist and accept logins at the
// site? The paper estimated this by manually logging in to 50 sampled
// accounts per status bin (§5.2.3); the simulation can probe every account
// through the same login endpoint a human would use.
type Validation struct {
	Registration *core.Registration
	Valid        bool
}

// ValidateAll probes every burned registration over HTTP and returns the
// outcomes in ledger order. Probes use the site's public login form; sites
// that require email verification before login reject accounts whose
// verification link was never clicked, exactly as live sites did. Probes
// run on the crawl worker pool, one browser session each. A probe moves
// only its own account's failed-login streak, so the outcomes depend on
// neither the worker count nor earlier passes.
func (p *Pilot) ValidateAll() []Validation {
	regs := p.Ledger.Registrations()
	out := make([]Validation, len(regs))
	runSharded(p.workers(), len(regs), func(i int) {
		b := browser.New(browser.WithTransport(&browser.HandlerTransport{Handler: p.Universe}))
		out[i] = Validation{Registration: regs[i], Valid: p.probeLogin(b, regs[i])}
	})
	return out
}

func (p *Pilot) probeLogin(b *browser.Client, reg *core.Registration) bool {
	vals := url.Values{}
	vals.Set("login", reg.Identity.Email)
	vals.Set("password", reg.Identity.Password)
	page, err := b.Post("http://"+reg.Domain+"/login", vals)
	if err == nil && page.OK() {
		return true
	}
	// Some sites key accounts by username rather than email.
	vals.Set("login", reg.Identity.Username)
	page, err = b.Post("http://"+reg.Domain+"/login", vals)
	return err == nil && page.OK()
}
