package webgen

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"tripwire/internal/captcha"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.NumSites = 500
	return cfg
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(smallConfig())
	b := Generate(smallConfig())
	for i, sa := range a.Sites() {
		sb := b.Sites()[i]
		if sa.Domain != sb.Domain || sa.Language != sb.Language || sa.Storage != sb.Storage ||
			sa.RegPath != sb.RegPath || sa.Captcha != sb.Captcha {
			t.Fatalf("site %d differs across identical generations", i)
		}
	}
}

func TestGenerateAttributeRates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSites = 10000
	u := Generate(cfg)
	var loadFail, nonEnglish, noReg, eligible int
	for _, s := range u.Sites() {
		if s.LoadFailure {
			loadFail++
		}
		if s.Language != LangEnglish {
			nonEnglish++
		}
		if !s.LoadFailure && !s.HasRegistration {
			noReg++
		}
		if s.Eligible() {
			eligible++
		}
	}
	n := float64(cfg.NumSites)
	if f := float64(nonEnglish) / n; f < 0.35 || f > 0.52 {
		t.Errorf("non-English rate %.2f out of calibration band (~0.44)", f)
	}
	if f := float64(loadFail) / n; f < 0.02 || f > 0.12 {
		t.Errorf("load-failure rate %.2f out of band", f)
	}
	if f := float64(eligible) / n; f < 0.20 || f > 0.50 {
		t.Errorf("eligible fraction %.2f out of band (paper: ~36%%)", f)
	}
}

func TestGenerateBadStorageFractionsPanics(t *testing.T) {
	cfg := smallConfig()
	cfg.PlaintextFrac = 0.9 // sums > 1
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad storage fractions")
		}
	}()
	Generate(cfg)
}

func TestPasswordEncodingRoundTrip(t *testing.T) {
	pw := "Website1"
	if EncodePassword(StorePlaintext, pw, "") != pw {
		t.Error("plaintext encoding should be identity")
	}
	enc := EncodePassword(StoreReversible, pw, "")
	dec, ok := DecodeReversible(enc)
	if !ok || dec != pw {
		t.Errorf("reversible round-trip: got %q, %v", dec, ok)
	}
	weak := EncodePassword(StoreWeakHash, pw, "")
	if weak == pw || len(weak) != 32 {
		t.Errorf("weak hash %q malformed", weak)
	}
	s1 := EncodePassword(StoreStrongHash, pw, "saltA")
	s2 := EncodePassword(StoreStrongHash, pw, "saltB")
	if s1 == s2 {
		t.Error("strong hash ignores salt")
	}
	if s1 != EncodePassword(StoreStrongHash, pw, "saltA") {
		t.Error("strong hash not deterministic")
	}
}

// TestPasswordEncodingGolden pins the stored encodings, so a change to the
// hashing kernels cannot silently change what a dump contains.
func TestPasswordEncodingGolden(t *testing.T) {
	for _, tc := range []struct {
		policy StoragePolicy
		salt   string
		want   string
	}{
		{StoreWeakHash, "", "522720903267d84cb7ae0d7fe741bbe0"},
		{StoreStrongHash, "saltA", "4a339a2d3f13c08296300c4bf99b199164d01dd15fb57bf3030b2867a31bda39"},
	} {
		if got := EncodePassword(tc.policy, "Website1", tc.salt); got != tc.want {
			t.Errorf("%v: EncodePassword = %s, want %s", tc.policy, got, tc.want)
		}
	}
}

func TestStrongHashDigestZeroAlloc(t *testing.T) {
	pw, salt := "Website1", "s0123456789abcdef"
	var sink [32]byte
	if n := testing.AllocsPerRun(100, func() { sink = StrongHashDigest(pw, salt) }); n != 0 {
		t.Fatalf("StrongHashDigest allocates %v times per call, want 0", n)
	}
	_ = sink
}

func TestStoreCreateLookupCheck(t *testing.T) {
	now := time.Now()
	for _, policy := range []StoragePolicy{StorePlaintext, StoreReversible, StoreWeakHash, StoreStrongHash} {
		st := NewStore(policy)
		if _, err := st.Create("Alice", "alice@x.test", "Website1", "s1", now); err != nil {
			t.Fatalf("%v: create: %v", policy, err)
		}
		if _, err := st.Create("alice", "other@x.test", "pw", "s2", now); err == nil {
			t.Fatalf("%v: duplicate username accepted (case-insensitive)", policy)
		}
		if !st.CheckPassword("ALICE", "Website1") {
			t.Fatalf("%v: correct password rejected", policy)
		}
		if st.CheckPassword("alice", "Website2") {
			t.Fatalf("%v: wrong password accepted", policy)
		}
	}
}

func TestStoreVerifyToken(t *testing.T) {
	st := NewStore(StoreWeakHash)
	st.Create("bob", "bob@x.test", "pw123456", "", time.Now())
	st.IssueVerifyToken("bob", "tok1")
	if st.Verify("wrong") {
		t.Error("bad token verified")
	}
	if !st.Verify("tok1") {
		t.Error("good token rejected")
	}
	if st.Verify("tok1") {
		t.Error("token reuse allowed")
	}
	a, _ := st.Lookup("bob")
	if !a.Verified {
		t.Error("account not marked verified")
	}
}

func TestDumpMatchesPolicy(t *testing.T) {
	st := NewStore(StoreStrongHash)
	st.Create("carol", "carol@x.test", "Diamond7", "salty", time.Now())
	dump := st.Dump()
	if len(dump) != 1 {
		t.Fatalf("dump has %d entries", len(dump))
	}
	e := dump[0]
	if e.Policy != StoreStrongHash || e.Salt != "salty" {
		t.Fatalf("dump entry %+v lacks policy/salt", e)
	}
	if e.Stored == "Diamond7" {
		t.Fatal("dump leaked plaintext under a hashing policy")
	}
	if e.Stored != EncodePassword(StoreStrongHash, "Diamond7", "salty") {
		t.Fatal("dump credential does not verify")
	}
}

func universeForSite(t *testing.T, mutate func(*Site)) (*Universe, *Site) {
	t.Helper()
	cfg := smallConfig()
	u := Generate(cfg)
	var site *Site
	for _, s := range u.Sites() {
		if s.Eligible() && !s.MultiStage && s.Captcha == captcha.None && !s.FlakyBackend &&
			!s.OddFieldNames && !s.ObscureRegLink && !s.Passwords.RequireSpecial &&
			s.MaxEmailLen == 0 {
			site = s
			break
		}
	}
	if site == nil {
		t.Fatal("no clean eligible site in universe")
	}
	if mutate != nil {
		mutate(site)
	}
	return u, site
}

func get(t *testing.T, u *Universe, host, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "http://"+host+path, nil)
	rec := httptest.NewRecorder()
	u.ServeHTTP(rec, req)
	return rec
}

func post(t *testing.T, u *Universe, host, path string, vals url.Values) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "http://"+host+path, strings.NewReader(vals.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	u.ServeHTTP(rec, req)
	return rec
}

// fillPerfect builds a valid submission from ground truth.
func fillPerfect(u *Universe, site *Site, email, password string) url.Values {
	spec := u.FormSpec(site)
	vals := url.Values{}
	for _, f := range spec.Fields {
		switch f.Kind {
		case FieldCSRF:
			vals.Set(f.Name, csrfToken(site.Domain))
		case FieldEmail:
			vals.Set(f.Name, email)
		case FieldPassword, FieldConfirm:
			vals.Set(f.Name, password)
		case FieldUsername:
			vals.Set(f.Name, "testuser99")
		case FieldTOS:
			vals.Set(f.Name, "on")
		case FieldCaptcha:
			// handled by caller when needed
		default:
			if f.Required {
				vals.Set(f.Name, "Value")
			}
		}
	}
	return vals
}

func TestRegistrationHappyPath(t *testing.T) {
	u, site := universeForSite(t, nil)
	var sent []string
	u.Mailer = MailerFunc(func(from, to, subject, body string) error {
		sent = append(sent, subject)
		return nil
	})
	home := get(t, u, site.Domain, "/")
	if home.Code != http.StatusOK || !strings.Contains(home.Body.String(), site.RegPath) {
		t.Fatalf("home page missing registration link: code=%d", home.Code)
	}
	vals := fillPerfect(u, site, "newuser@mail.test", "Sunshine3aQ")
	resp := post(t, u, site.Domain, site.RegPath, vals)
	if resp.Code != http.StatusOK {
		t.Fatalf("registration returned %d", resp.Code)
	}
	st := u.Store(site.Domain)
	if st.Len() != 1 {
		t.Fatalf("store has %d accounts, want 1", st.Len())
	}
	if site.EmailVerify && len(sent) == 0 {
		t.Error("verification email not sent")
	}
	if !st.CheckPassword("testuser99", "Sunshine3aQ") && !st.CheckPassword("newuser", "Sunshine3aQ") {
		t.Error("stored credential does not verify")
	}
}

func TestRegistrationRejectsBadCSRF(t *testing.T) {
	u, site := universeForSite(t, nil)
	vals := fillPerfect(u, site, "x@mail.test", "Sunshine3aQ")
	spec := u.FormSpec(site)
	f, _ := spec.Field(FieldCSRF)
	vals.Set(f.Name, "forged")
	post(t, u, site.Domain, site.RegPath, vals)
	if u.Store(site.Domain).Len() != 0 {
		t.Fatal("account created despite bad CSRF token")
	}
}

func TestRegistrationRejectsMissingRequired(t *testing.T) {
	u, site := universeForSite(t, nil)
	vals := fillPerfect(u, site, "x@mail.test", "Sunshine3aQ")
	spec := u.FormSpec(site)
	f, _ := spec.Field(FieldEmail)
	vals.Del(f.Name)
	resp := post(t, u, site.Domain, site.RegPath, vals)
	if u.Store(site.Domain).Len() != 0 {
		t.Fatal("account created despite missing email")
	}
	if !strings.Contains(strings.ToLower(resp.Body.String()), "error") {
		t.Error("failure page lacks error wording")
	}
}

func TestRegistrationRejectsEmailTooLong(t *testing.T) {
	u, site := universeForSite(t, func(s *Site) { s.MaxEmailLen = 12 })
	vals := fillPerfect(u, site, "averylongaddress@mail.test", "Sunshine3aQ")
	post(t, u, site.Domain, site.RegPath, vals)
	if u.Store(site.Domain).Len() != 0 {
		t.Fatal("account created despite email-length cap (paper §6.2.3)")
	}
}

func TestRegistrationPasswordPolicy(t *testing.T) {
	u, site := universeForSite(t, func(s *Site) { s.Passwords = PasswordPolicy{MinLen: 10} })
	vals := fillPerfect(u, site, "x@mail.test", "short1")
	post(t, u, site.Domain, site.RegPath, vals)
	if u.Store(site.Domain).Len() != 0 {
		t.Fatal("short password accepted against policy")
	}
}

func TestFlakyBackendShowsSuccessStoresNothing(t *testing.T) {
	u, site := universeForSite(t, func(s *Site) { s.FlakyBackend = true; s.VagueResponse = false })
	vals := fillPerfect(u, site, "x@mail.test", "Sunshine3aQ")
	resp := post(t, u, site.Domain, site.RegPath, vals)
	body := strings.ToLower(resp.Body.String())
	if !strings.Contains(body, "thank") && !strings.Contains(body, "success") {
		t.Error("flaky backend should still render success")
	}
	if u.Store(site.Domain).Len() != 0 {
		t.Fatal("flaky backend stored an account")
	}
}

func TestVerificationFlow(t *testing.T) {
	u, site := universeForSite(t, func(s *Site) { s.EmailVerify = true; s.VerifyToLogin = true })
	var link string
	u.Mailer = MailerFunc(func(from, to, subject, body string) error {
		if i := strings.Index(body, "http://"); i >= 0 {
			link = strings.Fields(body[i:])[0]
		}
		return nil
	})
	vals := fillPerfect(u, site, "v@mail.test", "Sunshine3aQ")
	post(t, u, site.Domain, site.RegPath, vals)
	if link == "" {
		t.Fatal("no verification link emailed")
	}
	// Login should fail pre-verification.
	lv := url.Values{"login": {"v@mail.test"}, "password": {"Sunshine3aQ"}}
	if rec := post(t, u, site.Domain, "/login", lv); rec.Code == http.StatusOK {
		t.Fatal("login allowed before verification on a verify-to-login site")
	}
	pu, err := url.Parse(link)
	if err != nil {
		t.Fatal(err)
	}
	if rec := get(t, u, site.Domain, pu.Path+"?"+pu.RawQuery); rec.Code != http.StatusOK {
		t.Fatalf("verification link returned %d", rec.Code)
	}
	if rec := post(t, u, site.Domain, "/login", lv); rec.Code != http.StatusOK {
		t.Fatalf("login rejected after verification: %d", rec.Code)
	}
}

func TestMultiStageFlow(t *testing.T) {
	cfg := smallConfig()
	u := Generate(cfg)
	var site *Site
	for _, s := range u.Sites() {
		if s.Eligible() && s.MultiStage && s.Captcha == captcha.None && !s.OddFieldNames &&
			!s.FlakyBackend && !s.Passwords.RequireSpecial && s.MaxEmailLen == 0 {
			site = s
			break
		}
	}
	if site == nil {
		t.Skip("no multi-stage site in small universe")
	}
	vals := fillPerfect(u, site, "ms@mail.test", "Sunshine3aQ")
	resp := post(t, u, site.Domain, site.RegPath, vals)
	if u.Store(site.Domain).Len() != 0 {
		t.Fatal("multi-stage site created account after step 1 only")
	}
	body := resp.Body.String()
	if !strings.Contains(body, "Step 2 of 2") {
		t.Fatalf("step-1 response is not step 2: %.200s", body)
	}
	contIdx := strings.Index(body, `name="continuation" value="`)
	if contIdx < 0 {
		t.Fatal("no continuation token in step 2")
	}
	rest := body[contIdx+len(`name="continuation" value="`):]
	cont := rest[:strings.IndexByte(rest, '"')]
	step2 := profileFormSpec(site)
	v2 := url.Values{"continuation": {cont}}
	for _, f := range step2.Fields {
		switch f.Kind {
		case FieldCSRF:
			v2.Set(f.Name, csrfToken(site.Domain))
		case FieldTOS:
			v2.Set(f.Name, "on")
		default:
			v2.Set(f.Name, "Value")
		}
	}
	post(t, u, site.Domain, site.RegPath+"/complete", v2)
	if u.Store(site.Domain).Len() != 1 {
		t.Fatal("multi-stage completion did not create the account")
	}
}

func TestCaptchaVerification(t *testing.T) {
	_, site := universeForSite(t, nil)
	// Use a fresh universe so the form spec is built after the captcha is
	// enabled (specs are cached per universe).
	u2 := Generate(smallConfig())
	site2, _ := u2.Site(site.Domain)
	site2.Captcha = captcha.Image
	spec := u2.FormSpec(site2)
	if _, ok := spec.Field(FieldCaptcha); !ok {
		t.Skip("spec cached without captcha field")
	}
	issuer := u2.Issuer(site2)
	rng := rand.New(rand.NewSource(1))
	ch := issuer.Issue(captcha.Image, rng)
	vals := fillPerfect(u2, site2, "c@mail.test", "Sunshine3aQ")
	f, _ := spec.Field(FieldCaptcha)
	vals.Set("captcha_id", ch.ID)
	vals.Set(f.Name, "wrong answer")
	post(t, u2, site2.Domain, site2.RegPath, vals)
	if u2.Store(site2.Domain).Len() != 0 {
		t.Fatal("wrong captcha answer accepted")
	}
	vals.Set(f.Name, issuer.Answer(ch))
	post(t, u2, site2.Domain, site2.RegPath, vals)
	if u2.Store(site2.Domain).Len() != 1 {
		t.Fatal("correct captcha answer rejected")
	}
}

func TestLoadFailureSiteReturns5xx(t *testing.T) {
	u := Generate(smallConfig())
	for _, s := range u.Sites() {
		if s.LoadFailure {
			if rec := get(t, u, s.Domain, "/"); rec.Code < 500 {
				t.Fatalf("load-failure site returned %d", rec.Code)
			}
			return
		}
	}
	t.Skip("no load-failure site in small universe")
}

func TestUnknownHost(t *testing.T) {
	u := Generate(smallConfig())
	if rec := get(t, u, "nosuchsite.test", "/"); rec.Code != http.StatusBadGateway {
		t.Fatalf("unknown host returned %d", rec.Code)
	}
}

func TestNonEnglishSiteHasNoEnglishSignupText(t *testing.T) {
	u := Generate(smallConfig())
	for _, s := range u.Sites() {
		if s.Language != LangEnglish && !s.LoadFailure && s.HasRegistration && !s.ExternalAuthOnly && !s.ObscureRegLink {
			body := get(t, u, s.Domain, "/").Body.String()
			lower := strings.ToLower(body)
			for _, kw := range []string{"sign up", "register<", "create account", "join now"} {
				if strings.Contains(lower, kw) {
					t.Fatalf("non-English site %s leaks English signup text %q", s.Domain, kw)
				}
			}
			return
		}
	}
	t.Skip("no suitable non-English site")
}

// Property: CheckPassword accepts exactly the registered password, for all
// policies and arbitrary password strings.
func TestQuickCheckPasswordExact(t *testing.T) {
	policies := []StoragePolicy{StorePlaintext, StoreReversible, StoreWeakHash, StoreStrongHash}
	f := func(pw, other string, which uint8) bool {
		st := NewStore(policies[int(which)%len(policies)])
		if _, err := st.Create("u", "u@x.test", pw, "salt", time.Time{}); err != nil {
			return true
		}
		if !st.CheckPassword("u", pw) {
			return false
		}
		if other != pw && st.CheckPassword("u", other) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
