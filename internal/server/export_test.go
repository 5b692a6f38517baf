package server

// MaxIndexEntries is the request index's bound, for the external tests.
const MaxIndexEntries = maxIndexEntries

// DecodeRequest is the submit handler's body decoder, for the fuzzer.
var DecodeRequest = decodeRequest
