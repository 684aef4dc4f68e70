type t = { trace : Trace.t; series : Timeseries.t }

let create () = { trace = Trace.create (); series = Timeseries.create () }
let trace t = t.trace
let series t = t.series

let merge ~into child =
  let offset = Trace.now into.trace in
  Trace.merge ~into:into.trace child.trace;
  Timeseries.merge ~into:into.series ~offset child.series
