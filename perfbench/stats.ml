(* Clock, raw-sample buffers and the summaries the benchmark reports.
   Every latency comes from raw per-op samples on this clock, never from
   the telemetry histograms (their buckets stop at 10 ms). *)

(* CLOCK_MONOTONIC in nanoseconds, through bechamel's noalloc stub. *)
let now () = Int64.to_int (Monotonic_clock.now ())

(* An int array off the OCaml heap, so that the major GC never scans
   the benchmark's own samples while it times the program. *)
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let ints n : ints = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

(* A growable [ints]: raw ns samples, or stamps indexed by step. *)
module Buf = struct
  type t = { mutable a : ints; mutable n : int }

  let create () = { a = ints 4096; n = 0 }

  let reserve b len =
    let cap = Bigarray.Array1.dim b.a in
    if len > cap then begin
      let a = ints (max len (2 * cap)) in
      Bigarray.Array1.blit (Bigarray.Array1.sub b.a 0 b.n) (Bigarray.Array1.sub a 0 b.n);
      b.a <- a
    end

  let push b x =
    reserve b (b.n + 1);
    b.a.{b.n} <- x;
    b.n <- b.n + 1

  (* [set b i x] for stamps keyed by a step index; grows to cover [i]. *)
  let set b i x =
    reserve b (i + 1);
    b.a.{i} <- x;
    if i >= b.n then b.n <- i + 1

  let get b i = b.a.{i}
  let length b = b.n
  let to_array b = Array.init b.n (fun i -> b.a.{i})

  (* Samples [first, last), sorted. *)
  let sorted_sub b first last =
    let a = Array.init (last - first) (fun i -> b.a.{first + i}) in
    Array.sort compare a;
    a
end

(* Index of the nearest-rank [p] percentile of [n] sorted values, [p]
   in (0, 1]. *)
let rank n p = max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

(* Nearest-rank percentile of sorted raw samples. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.(rank n p)

(* Nearest-rank percentile of a list of figures. *)
let quantile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else a.(rank n p)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
