package core

// OracleDecode exposes the decode-then-re-encode oracle to the external
// differential tests.
var OracleDecode = oracleDecode
