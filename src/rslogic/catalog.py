"""Built-in corpus of checks about the Rudin-Shapiro summation automata.

Each entry is one query-language command.  The corpus is ordered: reg and
def entries install named machines that later sentences apply, so it must
run top to bottom in one environment.  toolkit.run_suite replays it that
way, after toolkit.standard_environment has seeded the RS4 sign table and
the verified rss/rst machines.

Kinds:
  reg        installs an automaton from a regex; no truth value
  def        installs a compiled relation; no truth value
  sentence   decides a closed formula; expect holds the required truth
  automaton  eval with free variables; registers a machine whose language
             is pinned exactly by GOLDS
  counting   def/eval with a parameter list; installs a linear
             representation consumed by the counting checks
"""

from dataclasses import dataclass

from .automata import from_regex


@dataclass(frozen=True)
class Check:
    name: str
    kind: str
    script: str
    expect: bool | None = None


CHECKS = (
    Check("test1", "sentence", '''eval test1 "?msd_4 An,y ($rss(n,y) & RS4[n+1]=@1) => $rss(n+1,?msd_2 y+1)":''', True),
    Check("test2", "sentence", '''eval test2 "?msd_4 An,y ($rss(n,y) & RS4[n+1]=@-1) => $rss(n+1,?msd_2 y-1)":''', True),
    Check("even4", "def", '''def even4 "?msd_4 Ek n=2*k":'''),
    Check("odd4", "def", '''def odd4 "?msd_4 Ek n=2*k+1":'''),
    Check("test3", "sentence", '''eval test3 "?msd_4 An,y ($rst(n,y) & ((RS4[n+1]=@1 & $even4(n+1)) |
   (RS4[n+1]=@-1 & $odd4(n+1)))) => $rst(n+1,?msd_2 y+1)":''', True),
    Check("test4", "sentence", '''eval test4 "?msd_4 An,y ($rst(n,y) & ((RS4[n+1]=@-1 & $even4(n+1)) |
   (RS4[n+1]=@1 & $odd4(n+1)))) => $rst(n+1, ?msd_2 y-1)":''', True),
    Check("test5", "sentence", '''eval test5 "?msd_4 (An Ey $rss(n,y)) &
   An ~Ex,y ($rss(n,x) & $rss(n,y) & (?msd_2 x!=y))":''', True),
    Check("test6", "sentence", '''eval test6 "?msd_4 (An Ey $rst(n,y)) &
   An ~Ex,y ($rst(n,x) & $rst(n,y) & (?msd_2 x!=y))":''', True),
    Check("eq3", "sentence", '''eval eq3 "?msd_4 An,x,y,z (n>=1 & $rss(2*n,x) & $rss(n,y) & $rst(n-1,z))
   => ?msd_2 x=y+z":''', True),
    Check("eq4", "sentence", '''eval eq4 "?msd_4 An,x,y,z ($rss(2*n+1,x) & $rss(n,y) & $rst(n,z))
   => ?msd_2 x=y+z":''', True),
    Check("eq5", "sentence", '''eval eq5 "?msd_4 An,x,y,z (n>=1 & $rst(2*n,x) & $rss(n,y) & $rst(n-1,z))
   => ?msd_2 x+z=y":''', True),
    Check("eq6", "sentence", '''eval eq6 "?msd_4 An,x,y,z ($rst(2*n+1,x) & $rss(n,y) & $rst(n,z))
   => ?msd_2 x+z=y":''', True),
    Check("eq7", "sentence", '''eval eq7 "?msd_4 An,x,y ($rss(4*n,x) & $rss(n,y)) =>
   ((RS4[n]=@1 => ?msd_2 x+1=2*y) & (RS4[n]=@-1 => ?msd_2 x=2*y+1))":''', True),
    Check("eq8", "sentence", '''eval eq8 "?msd_4 An,x,y,z ($rss(4*n+1,x) & $rss(4*n+3,y) & $rss(n,z))
   => ?msd_2 x=y & x=2*z":''', True),
    Check("eq9", "sentence", '''eval eq9 "?msd_4 An,x,y ($rss(4*n+2,x) & $rss(n,y)) =>
   (((RS4[n]=@1 & $even4(n)) => ?msd_2 x=2*y+1) &
   ((RS4[n]=@-1 & $even4(n)) => ?msd_2 x+1=2*y) &
   ((RS4[n]=@1 & $odd4(n)) => ?msd_2 x+1=2*y) &
   ((RS4[n]=@-1 & $odd4(n)) => ?msd_2 x=2*y+1))":''', True),
    Check("eq10", "sentence", '''eval eq10 "?msd_4 An,x,y (n>=1 & $rst(4*n,x) & $rst(n-1,y)) =>
   ((RS4[n]=@1 => ?msd_2 x=2*y+1) & (RS4[n]=@-1 => ?msd_2 x+1=2*y))":''', True),
    Check("eq11", "sentence", '''eval eq11 "?msd_4 An,x,y (n>=1 & $rst(?msd_4 4*n+1,x) &
   $rst(?msd_4 n-1,y)) => ?msd_2 x=2*y":''', True),
    Check("eq12", "sentence", '''eval eq12 "?msd_4 An,x,y,z (n>=1 & $rst(4*n+2,x) &
   $rst(n,y) & $rst(n-1,z)) => ?msd_2 x=y+z":''', True),
    Check("eq13", "sentence", '''eval eq13 "?msd_4 An,x,y ($rst(4*n+3,x) & $rst(n,y)) => ?msd_2 x=2*y":''', True),
    Check("rss_int", "reg", '''reg rss_int msd_4 msd_4 "[0,0]*[1,3][0,3]*":'''),
    Check("min_rss", "automaton", '''eval min_rss "?msd_4 n>=4 & $rss(n, x) & Ei,j $rss_int(i,j) &
   i<=n & n<=j & (Ay,m (i<=m & m<=j & $rss(m,y)) =>
   ?msd_2 y>=x)":'''),
    Check("max_rss", "automaton", '''eval max_rss "?msd_4 $rss(n, x) & Ei,j $rss_int(i,j) &
   i<=n & n<=j & (Ay,m (i<=m & m<=j & $rss(m,y)) =>
   ?msd_2 y<=x)":'''),
    Check("omega", "def", '''def omega "?msd_4 $rss(n,k) & At (t>n) => ~$rss(t,k)":'''),
    Check("omegadiff", "def", '''def omegadiff "?msd_4 Et,u $omega((?msd_2 n+1),t) &
   $omega(n,u) & t=x+u":'''),
    Check("omegas", "def", '''def omegas "?msd_4 Ek $rss(n,k) & $omega(k,x)":'''),
    Check("check_bounds", "sentence", '''eval check_bounds "?msd_4 An,t (n>=2 & $omegas(n,t)) => 3*t+2<=10*n":''', True),
    Check("eq14", "sentence", '''eval eq14 "?msd_4 An,x,y ((?msd_2 n>=1) & $omega(n,x) &
   $omega((?msd_2 2*n), y)) => y=4*x+3":''', True),
    Check("power2", "reg", '''reg power2 msd_2 "0*10*":'''),
    Check("eq15", "sentence", '''eval eq15 "?msd_4 An,x,y (?msd_2 n>=2 & (~$power2(?msd_2 n+1)) &
   $omega((?msd_2 n+1),x) & $omega((?msd_2 2*n+1),y)) => y=4*x+2":''', True),
    Check("power4", "reg", '''reg power4 msd_4 "0*10*":'''),
    Check("link42", "reg", '''reg link42 msd_4 msd_2 "([0,0]|[1,1])*":'''),
    Check("eq16", "sentence", '''eval eq16 "?msd_4 An,x,y,z ($power4(x) & x>=4 & 2*n+2<=x &
   $rss(n,y) & $link42(x,z)) => $rss(n+x,?msd_2 y+z)":''', True),
    Check("eq17", "sentence", '''eval eq17 "?msd_4 An,x,y,z ($power4(x) & x>=4 & 2*n>=x & n<x & $rss(n,y)
   & $link42(x,z)) => $rss(n+x,?msd_2 3*z-y)":''', True),
    Check("eq18", "sentence", '''eval eq18 "?msd_4 An,x,y,z ($power4(x) & n<x & $rss(n,y) & $link42(x,z))
   => $rss(n+2*x,?msd_2 y+2*z)":''', True),
    Check("eq19", "sentence", '''eval eq19 "?msd_4 An,x,y,z ($power4(x) & x<=n & n<2*x & $rss(n,y) &
   $link42(x,z)) => $rss(n+2*x,?msd_2 4*z-y)":''', True),
    Check("lemma4", "sentence", '''eval lemma4 "?msd_4 An,x,y,z ($power4(x) & x<=n & n<2*x &
    $link42(x,z) & $rss(n,y)) => ?msd_2 y<=2*z":''', True),
    Check("lemma4a", "automaton", '''def lemma4a "?msd_4 Ez $power4(x) & x<=n & n<2*x &
    $link42(x,z) & $rss(n,?msd_2 2*z)":'''),
    Check("sqrtpow2", "reg", '''reg sqrtpow2 msd_4 msd_2 "[0,0]*([1,1]|[0,1][2,0])[0,0]*":'''),
    Check("oddpow2", "reg", '''reg oddpow2 msd_4 "0*20*":'''),
    Check("specval_a", "sentence", '''eval specval_a "?msd_4 Ax,y $sqrtpow2(x,y) => $rss(x,?msd_2 y+1)":''', True),
    Check("specval_b", "sentence", '''eval specval_b "?msd_4 Ax,y $sqrtpow2(x,y) => $rss(x-1,?msd_2 y)":''', True),
    Check("specval_c1", "sentence", '''eval specval_c1 "?msd_4 Ax,y ($power4(x) & x>1 & $sqrtpow2(x,y))
   => $rss(x-2, ?msd_2 y+1)":''', True),
    Check("specval_c2", "sentence", '''eval specval_c2 "?msd_4 Ax,y ($oddpow2(x) & $sqrtpow2(x,y))
   => $rss(x-2, ?msd_2 y-1)":''', True),
    Check("specval_d", "sentence", '''eval specval_d "?msd_4 Ax,y ($power4(x) & $link42(x,y))
   => $rss(3*x-1,?msd_2 3*y)":''', True),
    Check("specval_e", "sentence", '''eval specval_e "?msd_4 Ax,y ($oddpow2(x) & $sqrtpow2(x,y))
   => $rss(3*x-1,?msd_2 2*y)":''', True),
    Check("specval_f", "sentence", '''eval specval_f "?msd_4 Ax,y ($power4(x) & x>1 & $link42(x,y))
   => $rst(x,?msd_2 y+1)":''', True),
    Check("specval_g", "sentence", '''eval specval_g "?msd_4 Ax $oddpow2(x) => $rst(x,?msd_2 1)":''', True),
    Check("specval_h", "sentence", '''eval specval_h "?msd_4 Ax,y ($power4(x) & $link42(x,y))
   => $rst(x-1,?msd_2 y)":''', True),
    Check("specval_i", "sentence", '''eval specval_i "?msd_4 Ax $oddpow2(x) => $rst(x-1,?msd_2 0)":''', True),
    Check("specval_j", "sentence", '''eval specval_j "?msd_4 Ax,y ($power4(x) & x>1 & $link42(x,y))
   => $rst(x-2, ?msd_2 y-1)":''', True),
    Check("specval_k", "sentence", '''eval specval_k "?msd_4 Ax $oddpow2(x) => $rst(x-2,?msd_2 1)":''', True),
    Check("specval_l", "sentence", '''eval specval_l "?msd_4 Ax,y $sqrtpow2(x,y) => $rst(3*x-1,y)":''', True),
    Check("satz10", "automaton", '''def satz10 "$rst(?msd_4 n,?msd_2 0)":'''),
    Check("same", "automaton", '''def same "Ex $rss(n,x) & $rst(n,x)":'''),
    Check("rst_int1", "reg", '''reg rst_int1 msd_4 msd_4 "[0,0]*[1,1][0,3]*":'''),
    Check("rst_int2", "reg", '''reg rst_int2 msd_4 msd_4 "[0,0]*[2,3][0,3]*":'''),
    Check("max_rst1", "automaton", '''eval max_rst1 "?msd_4 n>=2 & $rst(n, ?msd_2 x) & Ei,j $rst_int1(i,j) &
i<=n & n<=j & (Ay,m (i<=m & m<=j & $rst(m,?msd_2 y)) => ?msd_2 y<=x)":'''),
    Check("max_rst2", "automaton", '''eval max_rst2 "?msd_4 n>=4 & $rst(n, ?msd_2 x) & Ei,j $rst_int2(i,j) &
i<=n & n<=j & (Ay,m (i<=m & m<=j & $rst(m,?msd_2 y)) => ?msd_2 y<=x)":'''),
    Check("eq24a1", "sentence", '''eval eq24a1 "?msd_4 An,x,y,z ($power4(x) & $link42(x,y) & 3*n+4=4*x &
   $rss(n,z)) => ?msd_2 z+1=2*y":''', True),
    Check("eq24a2", "sentence", '''eval eq24a2 "?msd_4 An,x,y,z ($power4(x) & $link42(x,y) & n+1=4*x &
   $rss(n,z)) => ?msd_2 z=2*y":''', True),
    Check("eq24b1", "sentence", '''eval eq24b1 "?msd_4 Ax,y,z ($power4(x) & x>1 & $link42(x,y) & $rst(x,z))
   => ?msd_2 z=y+1":''', True),
    Check("eq24b2", "sentence", '''eval eq24b2 "?msd_4 An,x,y,z ($power4(x) & $link42(x,y) & 3*n+2=5*x &
   $rst(n,z)) => ?msd_2 z+1=y":''', True),
    Check("eq24c", "sentence", '''eval eq24c "?msd_4 An,s,x,y,w,z ($power4(x) & $link42(x,w) & $link42(y,s)
   & (?msd_2 s<w) & n+2*y+1=2*x & $rst(n,z)) => ?msd_2 z=2*s":''', True),
    Check("eq24d", "sentence", '''eval eq24d "?msd_4 An,s,x,y,w,z ($power4(x) & $link42(x,w) & $link42(y,s)
   & (?msd_2 s<w) & n+2*y+1=4*x & $rst(n,z)) => ?msd_2 z+2*s=2*w":''', True),
    Check("eq24e", "sentence", '''eval eq24e "?msd_4 Ax,n ($power4(x) & 3*n+2=8*x) => $rst(n,?msd_2 1)":''', True),
    Check("maps", "def", '''def maps "?msd_4 Ex $rss(n,x) & $link42(y,x)":'''),
    Check("ms_lowerbnd", "sentence", '''eval ms_lowerbnd "?msd_4 An,y (n>=1 & $maps(n,y)) => y<=3*n+1":''', True),
    Check("ms_upperbnd", "sentence", '''eval ms_upperbnd "?msd_4 An,y (n>=1 & $maps(n,y)) => 3*n+7<=5*y":''', True),
    Check("lowerbnd_tight", "sentence", '''eval lowerbnd_tight "?msd_4 Am En,y (n>m) & $maps(n,y) & y=3*n+1":''', True),
    Check("upperbnd_tight", "sentence", '''eval upperbnd_tight "?msd_4 Am En,y (n>m) & $maps(n,y) & 5*y=3*n+7":''', True),
    Check("exceptional_set", "automaton", '''def exceptional_set "?msd_4 Em $maps(n,m) & m>2*n":'''),
    Check("maxcheck", "sentence", '''eval maxcheck "?msd_4 An,x,y,z ($power4(x) & 3*n+1>=4*x & n<2*x
   & $rss(n,y) & $link42(x,z)) => ?msd_2 y<=2*z":''', True),
    Check("J_inequality", "sentence", '''eval J_inequality "?msd_4 An,x,y,z,w,m ($rss(n,m) & $power4(x) & $power4(y)
   & x>y & $link42(x,w) & $link42(y,z) & 8*x<=3*n+8*y & 3*n+2*y<8*x)
   => ?msd_2 m+2*z<=4*w":''', True),
    Check("left_endpoint", "def", '''def left_endpoint "?msd_4 3*z+8*y=8*x":'''),
    Check("right_endpoint", "def", '''def right_endpoint "?msd_4 3*z+2*y=8*x":'''),
    Check("check_all", "sentence", '''eval check_all "?msd_4 An (n>=1) => ((~$exceptional_set(n)) |
   (Ex $power4(x) & 4*x<=3*n+1 & n<2*x) |
   (Ex,y,z,w $power4(x) & $power4(y) & x>y &
   $left_endpoint(x,y,z) & $right_endpoint(x,y,w) & n>=z & n<w) |
   (Ex $power4(x) & 3*n+2=8*x))":''', True),
    Check("mapt", "def", '''def mapt "?msd_4 Ex $rst(n,x) & $link42(y,x)":'''),
    Check("bnd", "sentence", '''eval bnd "?msd_4 An,z $mapt(n,z) => z<=n+1":''', True),
    Check("except2", "automaton", '''def except2 "?msd_4 Ez $mapt(n,z) & z=n+1":'''),
    Check("omegabound", "sentence", '''eval omegabound "?msd_4 Ak,x,y ($omega(k,x) & $link42(y,k)) => 3*x<=5*y":''', True),
    Check("satz22", "counting", '''eval satz22 n "$rss(?msd_4 k,n)":'''),
    Check("gfunc", "counting", '''eval gfunc n "i<n":'''),
    Check("tvalues", "sentence", '''eval tvalues "?msd_4 An,k Em (m>n) & $rst(m,k)":''', True),
    Check("counta1", "counting", '''def counta1 k x "?msd_4 $rst(n,k) & $power4(x) & x>1 & 2*n<x ":'''),
    Check("counta2", "counting", '''def counta2 k x "?msd_4 Ey $power4(x) & x>1 & $link42(x,y) &
   (?msd_2 (k=0 & 2*n<y)|(1<=k & k<y & n+k<y))":'''),
    Check("countb1", "counting", '''def countb1 k x "?msd_4 $rst(n,k) & $power4(x) & n<x":'''),
    Check("countb2", "counting", '''def countb2 k x "?msd_4 Ey $power4(x) & $link42(x,y) &
   (?msd_2 (k=0 & n+1<y)|(k=y & n=0)|(1<=k & k<y & n+2*k<2*y))":'''),
    Check("alpha", "def", '''def alpha "?msd_4 $rss(n,k) & At (t<n) => ~$rss(t,k)":'''),
    Check("alphap", "def", '''def alphap "?msd_4 $rst(n,k) & At (t<n) => ~$rst(t,k)":'''),
    Check("verify_alphap", "sentence", '''eval verify_alphap "?msd_4 Ak,t ((?msd_2 k>=1) & $alphap(k,t)) =>
   $link42(t+1,k)":''', True),
    Check("even2", "def", '''def even2 "Ek n=2*k":'''),
    Check("curve", "def", '''def curve "?msd_4 $rss(n,x) & $rst(n,y)":'''),
    Check("curvecheck", "sentence", '''eval curvecheck "?msd_4 Ax,y (?msd_2 x>=y & x+y>0 & $even2(?msd_2 x-y)) <=>
   En $curve(n,x,y)":''', True),
    Check("curvecheck3", "sentence", '''eval curvecheck3 "?msd_4 Ex,y,n1,n2,n3 n1<n2 & n2<n3 &
   $curve(n1,x,y) & $curve(n2,x,y) & $curve(n3,x,y)":''', False),
    Check("selfint1", "sentence", '''eval selfint1 "?msd_4 Em,x1,y1,x2,y2,n $curve(m,x1,y1) &
   $curve(m+1,x2,y2) & $curve(n,x1,y1) & $curve(n+1,x2,y2) & m!=n":''', False),
    Check("selfint2", "sentence", '''eval selfint2 "?msd_4 Em,x1,y1,x2,y2,n $curve(m,x1,y1) &
   $curve(m+1,x2,y2) & $curve(n+1,x1,y1) & $curve(n,x2,y2) & m!=n":''', False),
)

# Exact languages the "automaton" entries must compile to, as regexes over
# each machine's track tuple in registered order.  max_rst2's x track leads
# with [0,1]: the peak value on its intervals is a power of 2 needing one
# more binary digit than the quarter where it occurs (t(15) = 4 = 100_2).
GOLDS = (
    ("min_rss", "[0,0]*[1,1][0,0]*[0,1] | [0,0]*[1,1][2,0]*[2,1]"),
    ("max_rss", "[0,0]*[0,1][2,1][2,1]*"),
    ("max_rst1", "[0,0]*[1,1][1,1]*[0,1]"),
    ("max_rst2", "[0,0]*[0,1][3,0][3,0][3,0]*"),
    ("lemma4a", "[1,1]([1,0]|[3,0])*"),
    ("satz10", "13* | 2(0|2)*13*"),
    ("same", "3* | 1(0|1)*03*"),
    ("exceptional_set", "(0|2)* | (0|2)*1(1|3)*"),
    ("except2", "(0|11*0)*3*"),
)

# Pairs of counting entries whose representations must agree everywhere:
# the direct count and its closed form subtract to the zero function.
COUNT_EQUAL = (
    ("satz22", "gfunc"),
    ("counta1", "counta2"),
    ("countb1", "countb2"),
)


def gold_automaton(env, name):
    """The pinned language for an automaton entry, over its track systems."""
    pattern = dict(GOLDS)[name]
    systems = [t.system for t in env.relation(name).automaton.tracks]
    return from_regex(systems, pattern)

