package crawler

import (
	"net/url"
	"strings"
	"testing"

	"tripwire/internal/browser"
)

// benchRegPage is a registration page shaped like webgen output, used to
// benchmark the field classifier and form scorer on realistic markup.
const benchRegPage = `<!DOCTYPE html>
<html><head><title>Create your account - Example</title></head>
<body><div id="header"><h1>Example</h1></div>
<div id="content"><h2>Create your account</h2>
<form id="regform" action="/register" method="post">
<input type="hidden" name="csrf_token" value="deadbeef01234567">
<p><label for="username">Choose a username *</label><input type="text" name="username" id="username" required></p>
<p><label for="email">Email address *</label><input type="text" name="email" id="email" required></p>
<p><label for="password">Password *</label><input type="password" name="password" id="password" required></p>
<p><label for="password2">Confirm password *</label><input type="password" name="password2" id="password2" required></p>
<p><label for="first_name">First name</label><input type="text" name="first_name" id="first_name"></p>
<p><label for="last_name">Last name</label><input type="text" name="last_name" id="last_name"></p>
<p><label for="zip">ZIP code</label><input type="text" name="zip" id="zip"></p>
<p><select name="state"><option value=""></option><option value="CA">CA</option></select></p>
<p><input type="checkbox" name="tos" value="on" required> <label>I agree to the Terms of Service</label></p>
<p><input type="checkbox" name="newsletter" value="on"> <label>Send me the newsletter</label></p>
<input type="submit" value="Create account">
</form></div></body></html>`

func benchPage(b *testing.B) *browser.Page {
	b.Helper()
	u, err := url.Parse("http://bench.example/register")
	if err != nil {
		b.Fatal(err)
	}
	return &browser.Page{URL: u, StatusCode: 200, Raw: benchRegPage}
}

// BenchmarkClassify measures the steady-state per-page classification cost:
// field-meaning recovery for every control plus the registration-form score,
// as bestForm runs them on each visited page.
func BenchmarkClassify(b *testing.B) {
	page := benchPage(b)
	forms := page.Forms()
	if len(forms) != 1 {
		b.Fatalf("got %d forms", len(forms))
	}
	lower := strings.ToLower(page.DOM().Text())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range forms[0].Fields {
			ClassifyField(&forms[0].Fields[j])
		}
		FormScore(forms[0], func() string { return lower })
	}
}

// BenchmarkClassifyCold re-extracts the form every iteration, so per-field
// context assembly and first-classification cost stay in the measurement —
// the cost profile of a page seen for the first time.
func BenchmarkClassifyCold(b *testing.B) {
	page := benchPage(b)
	lower := strings.ToLower(page.DOM().Text())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forms := page.Forms()
		for j := range forms[0].Fields {
			ClassifyField(&forms[0].Fields[j])
		}
		FormScore(forms[0], func() string { return lower })
	}
}
