package httpapi

// StatusOf exposes the taxonomy-to-status mapping to the external test
// package, so wire-level tests can check a reply's status against its
// envelope code.
var StatusOf = statusOf
