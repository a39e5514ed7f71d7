// Shared fixtures for PMDL tests: the texts of the shipped models (the
// paper's Figures 4 and 7, Jacobi and the examples') and a ScheduleSink that
// records the activation stream.
#pragma once

#include <string>
#include <vector>

#include "pmdl/model.hpp"

namespace hmpi::pmdl::testing {

/// The EM3D performance model, verbatim from the paper's Figure 4.
inline const char* em3d_source() {
  return R"(
algorithm Em3d(int p, int k, int d[p], int dep[p][p]) {
  coord I=p;
  node {I>=0: bench*(d[I]/k);};
  link (L=p) {
    I>=0 && I!=L && (dep[I][L] > 0) :
      length*(dep[I][L]*sizeof(double)) [L]->[I];
  };
  parent[0];
  scheme {
    int current, owner, remote;
    par (owner = 0; owner < p; owner++)
        par (remote = 0; remote < p; remote++)
             if ((owner != remote) && (dep[owner][remote] > 0))
                100%%[remote]->[owner];
    par (current = 0; current < p; current++) 100%%[current];
  };
};
)";
}

/// The matrix-multiplication performance model, following the paper's
/// Figure 7 (with the obvious typos fixed: `h[m][m][m][m]` dimensions and
/// the B-volume width index per the accompanying text).
inline const char* parallel_axb_source() {
  return R"(
typedef struct {int I; int J;} Processor;

algorithm ParallelAxB(int m, int r, int n, int l, int w[m],
                      int h[m][m][m][m])
{
  coord I=m, J=m;
  node {I>=0 && J>=0: bench*(w[J]*(h[I][J][I][J])*(n/l)*(n/l)*n);};
  link (K=m, L=m)
  {
    I>=0 && J>=0 && I!=K :
      length*(w[J]*(h[I][J][I][J])*(n/l)*(n/l)*(r*r)*sizeof(double))
              [I, J] -> [K, J];
    I>=0 && J>=0 && J!=L && ((h[I][J][K][L]) > 0) :
      length*(w[J]*(h[I][J][K][L])*(n/l)*(n/l)*(r*r)*sizeof(double))
              [I, J] -> [K, L];
  };
  parent[0,0];
  scheme
  {
    int k;
    Processor Root, Receiver, Current;
    for(k = 0; k < n; k++)
    {
      int Acolumn = k%l, Arow;
      int Brow = k%l, Bcolumn;
      par(Arow = 0; Arow < l; )
      {
        GetProcessor(Arow, Acolumn, m, h, w, &Root);
        par(Receiver.I = 0; Receiver.I < m; Receiver.I++)
          par(Receiver.J = 0; Receiver.J < m; Receiver.J++)
             if((Root.I != Receiver.I || Root.J != Receiver.J) &&
                Root.J != Receiver.J)
               if((h[Root.I][Root.J][Receiver.I][Receiver.J]) > 0)
                 (100/(w[Root.J]*(n/l)))%%
                        [Root.I, Root.J] -> [Receiver.I, Receiver.J];
        Arow += h[Root.I][Root.J][Root.I][Root.J];
      }
      par(Bcolumn = 0; Bcolumn < l; )
      {
        GetProcessor(Brow, Bcolumn, m, h, w, &Root);
        par(Receiver.I = 0; Receiver.I < m; Receiver.I++)
          if(Root.I != Receiver.I)
             (100/((h[Root.I][Root.J][Root.I][Root.J])*(n/l))) %%
                   [Root.I, Root.J] -> [Receiver.I, Root.J];
        Bcolumn += w[Root.J];
      }
      par(Current.I = 0; Current.I < m; Current.I++)
        par(Current.J = 0; Current.J < m; Current.J++)
           (100/n) %% [Current.I, Current.J];
    }
  };
};
)";
}

/// The Jacobi performance model of src/apps/jacobi.
inline const char* jacobi_source() {
  return R"(
algorithm Jacobi(int p, int rows[p], int cols) {
  coord I=p;
  node { I>=0: bench*(rows[I]); };
  link (J=p) {
    I>=0 && (J == I+1 || J == I-1) :
      length*(cols*sizeof(double)) [I]->[J];
  };
  parent[0];
  scheme {
    int i;
    par (i = 0; i < p; i++) {
      if (i > 0) 100%%[i]->[i-1];
      if (i < p-1) 100%%[i]->[i+1];
    }
    par (i = 0; i < p; i++) 100%%[i];
  };
};
)";
}

/// The models of examples/quickstart (Ring) and of examples/custom_cluster,
/// adaptive_load and live_migration (Work, one text in all three).
inline const char* quickstart_ring_source() {
  return R"(
    algorithm Ring(int p, int work[p]) {
      coord I=p;
      node { I>=0: bench*(work[I]); };
      link (J=p) { J == ((I+1) % p) : length*(1000) [I]->[J]; };
      parent[0];
      scheme {
        int i;
        par (i = 0; i < p; i++) 100%%[i];
        par (i = 0; i < p; i++) 100%%[i]->[(i+1) % p];
      };
    };
  )";
}

inline const char* example_work_source() {
  return R"(
    algorithm Work(int p, int v[p]) {
      coord I=p;
      node { I>=0: bench*(v[I]); };
      parent[0];
      scheme { int i; par (i = 0; i < p; i++) 100%%[i]; };
    };
  )";
}

/// Records every sink callback in order, for asserting on scheme replays.
class RecordingSink : public ScheduleSink {
 public:
  struct Event {
    enum Kind { kCompute, kTransfer, kParBegin, kParIterBegin, kParEnd } kind;
    std::vector<long long> src;
    std::vector<long long> dst;
    double percent = 0.0;
  };

  void compute(std::span<const long long> coords, double percent) override {
    events.push_back({Event::kCompute,
                      std::vector<long long>(coords.begin(), coords.end()),
                      {},
                      percent});
  }
  void transfer(std::span<const long long> src, std::span<const long long> dst,
                double percent) override {
    events.push_back({Event::kTransfer,
                      std::vector<long long>(src.begin(), src.end()),
                      std::vector<long long>(dst.begin(), dst.end()),
                      percent});
  }
  void par_begin() override { events.push_back({Event::kParBegin, {}, {}, 0}); }
  void par_iter_begin() override {
    events.push_back({Event::kParIterBegin, {}, {}, 0});
  }
  void par_end() override { events.push_back({Event::kParEnd, {}, {}, 0}); }

  std::size_t count(Event::Kind kind) const {
    std::size_t n = 0;
    for (const Event& e : events) {
      if (e.kind == kind) ++n;
    }
    return n;
  }

  std::vector<Event> events;
};

}  // namespace hmpi::pmdl::testing
