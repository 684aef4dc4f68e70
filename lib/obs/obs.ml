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

let create_task ~start_time =
  let trace = Trace.create () in
  Trace.preset_time trace start_time;
  { trace; metrics = Registry.create ~journal:true (); series = Timeseries.create () }

let merge ~into child =
  Trace.merge ~into:into.trace child.trace;
  Registry.merge ~into:into.metrics child.metrics;
  Timeseries.merge ~into:into.series child.series
