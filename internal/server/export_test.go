package server

// MaxIndexEntries is the request index's bound, for the external tests.
const MaxIndexEntries = maxIndexEntries
