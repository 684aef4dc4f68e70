type t = { trace : Trace.t; metrics : Registry.t; series : Timeseries.t }

let create () =
  {
    trace = Trace.create ();
    metrics = Registry.create ();
    series = Timeseries.create ();
  }

let trace t = t.trace
let metrics t = t.metrics
let series t = t.series

let merge ~into child =
  let offset = Trace.now into.trace in
  Trace.merge ~into:into.trace child.trace;
  Registry.merge ~into:into.metrics child.metrics;
  Timeseries.merge ~into:into.series ~offset child.series
