package datalog

// OracleEval exposes the reference evaluator (oracle_test.go) to the
// external test package, which can import magic where this one cannot.
var OracleEval = oracleEval
