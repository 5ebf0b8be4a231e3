(* Host-speed correction for the untraced run's times.

   The benchmark runs on shared hosts whose speed changes by up to 40%
   over seconds to minutes, as co-tenants come and go; a slow stretch can
   cover a whole run, which no amount of repetition inside the run evens
   out.  So the run times a fixed reference task between its operations
   and scales each operation's wall time by [nominal_s] over the reference
   time measured around it.  A corrected time is in seconds at the host
   speed where the reference task takes [nominal_s]; on an idle host it
   is close to the wall time.

   The reference task builds and drops small maps and hash tables and
   sorts a preallocated array, so it exercises the allocator, the minor
   heap and the caches as the compiler does.  Everything it allocates dies
   in the minor heap, so its cost does not depend on how much the program
   under test keeps alive. *)

let now = Unix.gettimeofday

let nominal_s = 0.015

module IM = Map.Make (Int)

let src = Array.init 4096 (fun i -> i * 7919 mod 4099)
let buf = Array.make 4096 0

let reference_task () =
  let acc = ref 0 in
  for r = 1 to 10 do
    let m = ref IM.empty in
    let h = Hashtbl.create 256 in
    for i = 0 to 1023 do
      let k = src.((i * r) land 4095) in
      m := IM.add k i !m;
      Hashtbl.replace h k r
    done;
    acc := !acc + IM.fold (fun k v a -> a + k + v) !m 0 + Hashtbl.length h;
    Array.blit src 0 buf 0 4096;
    Array.sort compare buf;
    acc := !acc + buf.(r land 4095)
  done;
  ignore (Sys.opaque_identity !acc)

(* Reference samples, most recent first: start time and duration. *)
let samples : (float * float) list ref = ref []

let sample () =
  let t0 = now () in
  reference_task ();
  samples := (t0, now () -. t0) :: !samples

let median3 = function
  | a :: b :: c :: _ -> Float.max (Float.min a b) (Float.min (Float.max a b) c)
  | [ a; b ] -> (a +. b) /. 2.0
  | [ a ] -> a
  | [] -> nominal_s

(* The reference time now: the median of the last three samples, after a
   fresh one if the last is older than 0.2 s. *)
let current () =
  (match !samples with
  | (t, _) :: _ when now () -. t < 0.2 -> ()
  | _ -> sample ());
  median3 (List.map snd !samples)

(* The median of [n] fresh samples, for a phase that cannot be
   interrupted, such as a pass of served requests. *)
let measure n =
  for _ = 1 to n do
    sample ()
  done;
  let a = Array.of_list (List.filteri (fun i _ -> i < n) (List.map snd !samples)) in
  Array.sort compare a;
  a.(n / 2)

let correct ~reference dt = dt *. nominal_s /. reference

(* [timed f] is [f ()], its wall time and its corrected time.  An
   operation longer than 0.2 s is corrected by the mean reference time
   before and after it. *)
let timed f =
  let before = current () in
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  let reference =
    if dt > 0.2 then begin
      sample ();
      (before +. current ()) /. 2.0
    end
    else before
  in
  (r, dt, correct ~reference dt)
